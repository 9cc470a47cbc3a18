(* The client end of one TCP connection: bursts of request lines written
   in one go, replies read back line by line.  Each reply is stamped with
   the time the read that completed it returned, so a request's latency
   runs from its burst's write to its own reply line. *)

type t = { fd : Unix.file_descr; buf : Buffer.t; bytes : Bytes.t }

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Some { fd; buf = Buffer.create 65536; bytes = Bytes.create 65536 }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* A receive that waits at most this long fails the run instead of
   hanging it. *)
let timeout_s = 120.0

exception Closed of string

(* Split complete lines off the buffer, newest last. *)
let take_lines c =
  let s = Buffer.contents c.buf in
  let rec go start acc =
    match String.index_from_opt s start '\n' with
    | Some i -> go (i + 1) (String.sub s start (i - start) :: acc)
    | None -> (start, List.rev acc)
  in
  let start, lines = go 0 [] in
  Buffer.clear c.buf;
  Buffer.add_substring c.buf s start (String.length s - start);
  lines

(* Send [lines] as one write and read exactly as many reply lines.
   Returns the replies with the seconds from the write to each. *)
let burst c lines =
  let n = List.length lines in
  let t0 = Clock.now () in
  write_all c.fd (String.concat "" (List.map (fun l -> l ^ "\n") lines)) 0;
  let got = ref [] and k = ref 0 in
  while !k < n do
    (match Unix.select [ c.fd ] [] [] timeout_s with
    | [], _, _ -> raise (Closed "timeout waiting for a reply")
    | _ -> ());
    let r = Unix.read c.fd c.bytes 0 (Bytes.length c.bytes) in
    if r = 0 then raise (Closed "server closed the connection");
    let t = Clock.now () -. t0 in
    Buffer.add_subbytes c.buf c.bytes 0 r;
    List.iter
      (fun l ->
        got := (l, t) :: !got;
        incr k)
      (take_lines c)
  done;
  if !k > n then raise (Closed "more replies than requests");
  List.rev !got

let request c line = match burst c [ line ] with [ (l, _) ] -> l | _ -> assert false

(* Typed client for the line protocol (v1 and v2).  One connection =
   one file descriptor with a select-guarded buffered line reader, so a
   dead peer surfaces as a timeout error instead of a hang. *)

type t = {
  fd : Unix.file_descr;
  rbuf : Bytes.t;
  pending : Buffer.t; (* bytes received but not yet consumed as lines *)
  timeout_ms : int option;
  mutable version : int;
  mutable closed : bool;
}

let version t = t.version

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let send_line t line =
  if t.closed then Error "connection closed"
  else
    let payload = line ^ "\n" in
    let len = String.length payload in
    let rec push off =
      if off >= len then Ok ()
      else
        match Unix.write_substring t.fd payload off (len - off) with
        | 0 -> Error "connection closed by peer"
        | n -> push (off + n)
        | exception Unix.Unix_error (e, _, _) ->
            Error (Unix.error_message e)
    in
    push 0

(* First '\n'-terminated line out of [pending], if any. *)
let take_line t =
  let s = Buffer.contents t.pending in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear t.pending;
      Buffer.add_substring t.pending s (i + 1) (String.length s - i - 1);
      Some line

let recv_line t =
  if t.closed then Error "connection closed"
  else
    let deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        t.timeout_ms
    in
    let rec loop () =
      match take_line t with
      | Some line -> Ok line
      | None -> (
          let budget =
            match deadline with
            | None -> -1.0
            | Some d ->
                let left = d -. Unix.gettimeofday () in
                if left <= 0.0 then 0.0 else left
          in
          if budget = 0.0 then Error "timeout waiting for reply"
          else
            match Unix.select [ t.fd ] [] [] budget with
            | [], _, _ -> Error "timeout waiting for reply"
            | _ -> (
                match Unix.read t.fd t.rbuf 0 (Bytes.length t.rbuf) with
                | 0 -> Error "connection closed by peer"
                | n ->
                    Buffer.add_subbytes t.pending t.rbuf 0 n;
                    loop ()
                | exception Unix.Unix_error (e, _, _) ->
                    Error (Unix.error_message e))
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
    in
    loop ()

let roundtrip_line t line =
  match send_line t line with
  | Error _ as e -> e
  | Ok () -> recv_line t

let raw_request t line =
  match roundtrip_line t line with
  | Error _ as e -> e
  | Ok reply -> (
      match Json.parse reply with
      | v -> Ok v
      | exception Json.Parse_error msg -> Error ("bad reply: " ^ msg))

let request t req = raw_request t (Protocol.request_to_string req)

let reply_status reply =
  match Json.member "status" reply with
  | Some (Json.String s) -> Some s
  | _ -> None

let reply_ok reply = reply_status reply = Some "ok"

let error_code reply =
  match Json.member "code" reply with
  | Some (Json.String s) -> Some s
  | _ -> None

let error_message reply =
  match Json.member "message" reply with
  | Some (Json.String s) -> s
  | _ -> "unknown error"

(* Probe with {"op":"hello","v":2}: a v2 server answers ok with its
   negotiated generation; a v1 server rejects it with the structured
   "unsupported_version" error, and we fall back to a plain v1 hello.
   Anything else is a real failure. *)
let negotiate t =
  match raw_request t (Protocol.request_line ~v:2 Protocol.Hello) with
  | Error _ as e -> e
  | Ok reply when reply_ok reply ->
      (match Json.member "negotiated" reply with
      | Some (Json.Int v) -> t.version <- v
      | _ -> t.version <- 1);
      Ok ()
  | Ok reply when error_code reply = Some "unsupported_version" -> (
      match request t Protocol.Hello with
      | Error _ as e -> e
      | Ok reply when reply_ok reply ->
          t.version <- 1;
          Ok ()
      | Ok reply -> Error (error_message reply))
  | Ok reply -> Error (error_message reply)

(* A peer dying between our write and its read would raise SIGPIPE;
   with it ignored, writes fail with EPIPE, which the senders above
   surface as [Error]. *)
let connect ?timeout_ms ?(host = "127.0.0.1") ~port () =
  Server.ignore_sigpipe ();
  let addr =
    match Unix.inet_addr_of_string host with
    | a -> Some a
    | exception Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> None
        | h -> Some h.Unix.h_addr_list.(0)
        | exception Not_found -> None)
  in
  match addr with
  | None -> Error (Printf.sprintf "cannot resolve host %S" host)
  | Some addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_INET (addr, port)) with
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error (Unix.error_message e)
      | () -> (
          let t =
            {
              fd;
              rbuf = Bytes.create 65536;
              pending = Buffer.create 256;
              timeout_ms;
              version = 1;
              closed = false;
            }
          in
          match negotiate t with
          | Ok () -> Ok t
          | Error e ->
              close t;
              Error e))

(* --- convenience wrappers --- *)

let ping t = request t Protocol.Ping

let hello t = request t Protocol.Hello

let stats t = request t Protocol.Stats

let query ?(opts = Protocol.default_opts) t text =
  request t (Protocol.Query { text; opts })

let load t ~name ~attrs tuples = request t (Protocol.Load { name; attrs; tuples })

let insert t ~name tuples = request t (Protocol.Insert { name; tuples })

let delete t ~name tuples = request t (Protocol.Delete { name; tuples })

let drop t ~name = request t (Protocol.Drop { name })

let shutdown t = request t Protocol.Shutdown

(* --- in-process scripted sessions --- *)

(* Spool the lines to a temp file and serve them through
   {!Server.serve_pipe}, so scripted tests and examples exercise the
   real front end (window draining, admission control, version gate)
   without sockets.  Files rather than pipes: replies can exceed pipe
   capacity, and nobody is draining while the server runs. *)
let run_script_lines server lines =
  let req_path = Filename.temp_file "lbt_session" ".in" in
  let out_path = Filename.temp_file "lbt_session" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove req_path with Sys_error _ -> ());
      try Sys.remove out_path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out req_path in
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      close_out oc;
      let fd = Unix.openfile req_path [ Unix.O_RDONLY ] 0 in
      let out = open_out out_path in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          try close_out out with Sys_error _ -> ())
        (fun () -> Server.serve_pipe server fd out);
      let ic = open_in out_path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let replies = read [] in
      close_in ic;
      replies)

let run_script server reqs =
  run_script_lines server (List.map Protocol.request_to_string reqs)
  |> List.map Json.parse

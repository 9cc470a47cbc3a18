(* The server under test: a real [lbt serve --port P --data-dir D]
   process per set-up, with the default configuration.  A fresh process
   per set-up keeps the server's CPU time and peak RSS its own, not the
   client's. *)

type t = { pid : int; port : int }

(* The [lbt] executable built next to this one: [<build>/bin/lbt.exe]. *)
let lbt () =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "lbt.exe")

(* A port the kernel just handed out; the child binds it right after. *)
let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname s with
      | Unix.ADDR_INET (_, p) -> p
      | Unix.ADDR_UNIX _ -> failwith "free_port: not an inet socket")

let live : t list ref = ref []

let spawn ~data_dir =
  let port = free_port () in
  let exe = lbt () in
  let args = [| exe; "serve"; "--port"; string_of_int port; "--data-dir"; data_dir |] in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process exe args devnull devnull Unix.stderr)
  in
  let p = { pid; port } in
  live := p :: !live;
  p

let kill p =
  (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
  live := List.filter (fun q -> q.pid <> p.pid) !live

let kill_all () = List.iter kill !live

(* Connect as soon as the child listens (it recovers its data dir before
   listening, so an accepted connection means a recovered server). *)
let connect p =
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Wire.connect ~port:p.port with
    | Some c -> c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] p.pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun q -> q.pid <> p.pid) !live;
            failwith "server process exited before listening"
        | exception Unix.Unix_error _ -> ());
        if Unix.gettimeofday () > deadline then failwith "server did not start listening";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let clk_tck = 100.0

(* Server CPU seconds so far: utime + stime from /proc/<pid>/stat, the
   14th and 15th fields, counted after the parenthesised command name. *)
let cpu_s p =
  let s = read_file (Printf.sprintf "/proc/%d/stat" p.pid) in
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields from the 3rd on: utime is the 14th overall, index 11 here *)
  float_of_string (f.(11)) /. clk_tck +. (float_of_string f.(12) /. clk_tck)

(* Seconds the hypervisor stole from all vCPUs so far: the 8th value of
   the "cpu" line of /proc/stat, in ticks.  A diagnostic only. *)
let steal_s () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields when List.length fields >= 8 ->
          float_of_string (List.nth fields 7) /. clk_tck
      | _ -> 0.0)
  | [] -> 0.0

(* vCPUs: the "cpuN" lines of /proc/stat. *)
let cpus =
  String.split_on_char '\n' (read_file "/proc/stat")
  |> List.filter (fun l -> String.length l > 3 && String.sub l 0 3 = "cpu" && l.[3] <> ' ')
  |> List.length |> max 1

(* Peak resident set of the server process, in MiB. *)
let peak_rss_mb p =
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" p.pid)))
  in
  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
      float_of_int kb /. 1024.0)

(* Bytes of every regular file under [dir]. *)
let rec dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      let path = Filename.concat dir f in
      match Unix.lstat path with
      | { Unix.st_kind = Unix.S_DIR; _ } -> acc + dir_bytes path
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

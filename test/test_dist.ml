(* Distributed serve: coordinator + forked worker processes.

   - Session matrix (Session): the worker cells {shards 1,2,3} x
     {ivm on,off} x {durable on,off} x {2 workers} replay seeded
     sessions - writes, queries under every engine and budget,
     checkpoints, crash-restarts, worker kills and restarts - beside the
     single-process reference cells {shards 1,2,3} x {ivm on,off}.
     Every reply matches the set-semantics oracle; scrubbed of
     "elapsed_ms", replies are byte-identical to the reference cells of
     the same ivm setting (rows, counts and summed engine counters), and
     a reply scattered while a worker is dead is marked "degraded" but
     otherwise identical.  The smoke test runs one small session at
     shards 2.
   - Scripted sessions through the same runner: fresh replies carry
     the summed engine counters; a read scattered while a worker is
     dead is "degraded", and one after its restart is clean.
   - Cross-version splice fuzz: v2-only fields in v1 requests are
     ignored-with-counter; v1 requests stamped "v":2 against a plain
     server draw the structured reject.
   - A client that pipelines a window and vanishes without reading
     ends only its own connection: the listener keeps serving. *)

open Session (* also the module aliases: Json, Protocol, Server, ... *)

let check = Alcotest.check

(* The worker cells at [shards] beside their single-process
   references. *)
let cells ~shards =
  matrix ~shards ~workers:2 ()
  @ List.filter (fun c -> not c.durable) (matrix ~shards ~workers:0 ())

let test_distributed_differential () =
  with_fleet 2 (fun fleet ->
      check_sessions ~name:"worker matrix" (fun steps ->
          ignore (run_matrix ~fleet (cells ~shards:[ 1; 2; 3 ]) steps)))

(* In-process 2-worker smoke (the dist-smoke alias target): one small
   session at shards 2. *)
let test_dist_smoke () =
  with_fleet 2 (fun fleet ->
      ignore (run_matrix ~fleet (cells ~shards:[ 2 ]) (gen (Prng.create 7) ~size:2)))

(* --- scripted sessions: a worker cell at shards 3 beside its
   reference --- *)

let worker_cell = { shards = 3; ivm = false; durable = false; workers = 2; pooled = false }

(* The worker cell's replies to [steps] (the E edges loaded first),
   checked by the runner against the oracle and the reference. *)
let scripted fleet steps =
  let rng = Prng.create 4242 in
  let edges = List.init 80 (fun _ -> [ Prng.int rng 14; Prng.int rng 14 ]) in
  let load = Send (Protocol.Load { name = "E"; attrs = [ "u"; "v" ]; tuples = edges }) in
  let runs =
    run_matrix ~fleet [ { worker_cell with workers = 0 }; worker_cell ]
      ((load :: steps) @ epilogue ~dom:14)
  in
  List.map snd (List.assoc worker_cell runs)

let query engine text =
  Send (Protocol.Query { text; opts = { Protocol.default_opts with engine = Some engine } })

(* Fresh replies carry the engine work counters: summed over the
   workers, they are the single-process server's, byte for byte. *)
let test_distributed_counters () =
  with_fleet 2 (fun fleet ->
      List.iteri
        (fun i reply ->
          if i = 1 || i = 2 then
            check Alcotest.bool
              (Printf.sprintf "reply %d carries counters" i)
              true
              (Json.member "counters" reply <> None))
        (scripted fleet
           [ query Planner.Generic_join cyclic.(0); query Planner.Leapfrog cyclic.(2) ]))

(* A read scattered while a worker is dead comes back "degraded" with
   the complete answer; a worker restarted on the same port rejoins
   and the next read is clean again. *)
let test_worker_death () =
  with_fleet 2 (fun fleet ->
      let replies =
        scripted fleet
          [
            query Planner.Generic_join cyclic.(0);
            Kill 1;
            query Planner.Generic_join cyclic.(2);
            Restart 1;
            query Planner.Leapfrog cyclic.(3);
          ]
      in
      List.iteri
        (fun i want ->
          check Alcotest.string (Printf.sprintf "reply %d status" i) want
            (status (List.nth replies i)))
        [ "ok"; "ok"; "degraded"; "ok" ])

(* --- cross-version splice fuzz --- *)

(* v2-only fields spliced into v1 requests must be ignored (and
   counted); v1 requests stamped v:2 must draw the structured reject
   from a plain server and succeed against a worker. *)
let test_cross_version_splice_fuzz () =
  let v1_lines =
    [
      {|{"op":"ping"}|};
      {|{"op":"query","q":"R(a,b)"}|};
      {|{"op":"stats"}|};
      {|{"op":"load","name":"R","attrs":["a"],"tuples":[[1]]}|};
    ]
  in
  let v2_fields = [ "owned"; "lead"; "rel_version"; "mutation" ] in
  let srv = Server.create () in
  ignore
    (Server.handle_line srv
       {|{"op":"load","name":"R","attrs":["a","b"],"tuples":[[1,2]]}|});
  List.iteri
    (fun i line ->
      let extra = List.nth v2_fields (i mod List.length v2_fields) in
      let spliced =
        Printf.sprintf {|{"%s":7,%s|} extra
          (String.sub line 1 (String.length line - 1))
      in
      (* decodes to the same request, junk reported *)
      (match
         ( Protocol.request_of_string line,
           Protocol.request_of_string_ext spliced )
       with
      | Ok r, Ok (r', ignored, 1) ->
          if r <> r' then
            Alcotest.failf "splice changed the decode: %s" spliced;
          check
            Alcotest.(list string)
            (Printf.sprintf "junk reported in %s" spliced)
            [ extra ] ignored
      | _ -> Alcotest.failf "splice broke the decode: %s" spliced);
      (* and the live server still answers *)
      let reply = Json.parse (Server.handle_line srv spliced) in
      if status reply = "error" then
        Alcotest.failf "server rejected spliced v1 request: %s"
          (Json.to_string reply))
    v1_lines;
  (* v1 ops stamped v:2: structured reject on a plain server... *)
  let stamped =
    {|{"op":"query","v":2,"q":"R(a,b)"}|}
  in
  let reply = Json.parse (Server.handle_line srv stamped) in
  check Alcotest.string "stamped rejected" "error" (status reply);
  (match field "code" reply with
  | Json.String "unsupported_version" -> ()
  | other -> Alcotest.failf "bad code %s" (Json.to_string other));
  (* ...and accepted by a worker *)
  let wrk = Worker.create () in
  ignore
    (Server.handle_line wrk
       {|{"op":"load","name":"R","attrs":["a","b"],"tuples":[[1,2]]}|});
  let reply = Json.parse (Server.handle_line wrk stamped) in
  if status reply <> "ok" then
    Alcotest.failf "worker rejected stamped v1 op: %s" (Json.to_string reply);
  (* v2-only ops without the stamp are decode errors even on a worker *)
  let bare = {|{"op":"sync","version":0,"shards":2}|} in
  let reply = Json.parse (Server.handle_line wrk bare) in
  check Alcotest.string "bare v2 op rejected" "error" (status reply)

(* A client that pipelines a window of queries, shuts down its write
   side and closes without reading used to kill `lbt serve --port`
   with SIGPIPE on the first reply write.  The listener runs in a child
   with SIGPIPE reset to its default (this process may already ignore
   it), so only serve_tcp's own handling can keep it alive. *)
let test_vanished_client () =
  let port = port_of 7 in
  let pid =
    fork_listener port (fun () ->
        Sys.set_signal Sys.sigpipe Sys.Signal_default;
        Server.serve_tcp (Server.create ()) ~port)
  in
  Fun.protect
    ~finally:(fun () -> kill_worker pid)
    (fun () ->
      let edges =
        List.concat
          (List.init 15 (fun u -> List.init 15 (fun v -> [ u; v ])))
      in
      let window =
        Protocol.request_to_string
          (Protocol.Load { name = "E"; attrs = [ "u"; "v" ]; tuples = edges })
        ^ "\n"
        ^ String.concat ""
            (List.init 60 (fun _ -> {|{"op":"query","q":"E(x,y), E(y,z)"}|} ^ "\n"))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let rec push off =
        if off < String.length window then
          push (off + Unix.write_substring fd window off (String.length window - off))
      in
      push 0;
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      Unix.close fd;
      match Client.connect ~timeout_ms:5000 ~port () with
      | Error msg -> Alcotest.failf "server gone after a vanished client: %s" msg
      | Ok c ->
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              match Client.ping c with
              | Ok reply -> check Alcotest.string "ping" "ok" (status reply)
              | Error msg -> Alcotest.failf "ping failed: %s" msg))

let suite =
  [
    Alcotest.test_case "dist smoke (2 workers in-process)" `Quick
      test_dist_smoke;
    Alcotest.test_case "distributed ≡ single-process sharded (K=1,2,3)"
      `Quick test_distributed_differential;
    Alcotest.test_case "distributed counters byte-identical" `Quick
      test_distributed_counters;
    Alcotest.test_case "worker death degrades; restart rejoins" `Quick
      test_worker_death;
    Alcotest.test_case "cross-version splice fuzz" `Quick
      test_cross_version_splice_fuzz;
    Alcotest.test_case "vanished client spares the server" `Quick
      test_vanished_client;
  ]

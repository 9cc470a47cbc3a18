(* E26 - distributed serve: a coordinator scattering per-shard
   subqueries over worker replicas is byte-identical to a
   single-process sharded server.

   Two TCP workers are hosted on their own domains (same wire path as
   separate processes - the fork-based fault-injection lives in
   test/test_dist.ml, which cannot share a process with pooled
   suites), a coordinator server is attached to them, and the same
   seeded session - load, cyclic WCOJ queries under both engines, an
   insert fanned out with a version stamp, a tick-budgeted query
   (never distributed, by design), a count_only reply shaping - runs
   against both topologies.  Every reply must match byte for byte
   modulo the elapsed_ms wall-clock field: rows, counts, AND the
   summed per-worker engine counters (the PR-5 discipline extended
   over the wire).  The reply-derived counters recorded here are
   deterministic per seed, so BENCH_dist.json sits under the same
   byte-identity determinism gate as the other artifacts. *)

module Json = Lb_service.Json
module Protocol = Lb_service.Protocol
module Server = Lb_service.Server
module Client = Lb_service.Client
module Worker = Lb_service.Worker
module Coordinator = Lb_service.Coordinator
module Prng = Lb_util.Prng

let port_of slot = 7900 + (Unix.getpid () mod 499) + (slot * 17)

let spawn_worker port =
  let d = Domain.spawn (fun () -> try Worker.run ~port () with _ -> ()) in
  let rec poll tries =
    if tries = 0 then failwith "worker never came up"
    else
      match Client.connect ~timeout_ms:1000 ~port () with
      | Ok c -> Client.close c
      | Error _ ->
          Unix.sleepf 0.02;
          poll (tries - 1)
  in
  poll 200;
  d

let stop_worker port d =
  (match Client.connect ~timeout_ms:1000 ~port () with
  | Ok c ->
      ignore (Client.shutdown c);
      Client.close c
  | Error _ -> ());
  Domain.join d

let session rng n =
  let edges = List.init (6 * n) (fun _ -> [ Prng.int rng n; Prng.int rng n ]) in
  let fresh = List.init 8 (fun _ -> [ Prng.int rng n; Prng.int rng n ]) in
  let tuples ts =
    Json.List
      (List.map (fun t -> Json.List (List.map (fun v -> Json.Int v) t)) ts)
  in
  [
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "load");
           ("name", Json.String "E");
           ("attrs", Json.List [ Json.String "u"; Json.String "v" ]);
           ("tuples", tuples edges);
         ]);
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)","engine":"generic_join"}|};
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,w), E(w,x)","engine":"leapfrog"}|};
    Json.to_string
      (Json.Obj
         [
           ("op", Json.String "insert");
           ("name", Json.String "E");
           ("tuples", tuples fresh);
         ]);
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,x)","engine":"generic_join","count_only":true}|};
    {|{"op":"query","q":"E(x,y), E(y,z), E(z,x), E(x,w)","engine":"generic_join","max_ticks":3}|};
  ]

let scrub = function
  | Json.Obj fields ->
      Json.Obj (List.filter (fun (k, _) -> k <> "elapsed_ms") fields)
  | other -> other

let counter_of reply name =
  match Json.member "counters" reply with
  | Some (Json.Obj fields) -> (
      match List.assoc_opt name fields with Some (Json.Int n) -> n | _ -> 0)
  | _ -> 0

let shards = 3

let run_single lines =
  let srv = Server.create ~config:{ Server.default_config with shards } () in
  List.map Json.parse (Client.run_script_lines srv lines)

let run_distributed ~ports lines =
  let config =
    {
      Server.default_config with
      shards;
      protocol_max = Protocol.max_version;
    }
  in
  let srv = Server.create ~config () in
  let coord =
    Coordinator.attach ~timeout_ms:2000 srv ~shards
      ~workers:(List.map (fun p -> ("127.0.0.1", p)) ports)
  in
  let replies = List.map Json.parse (Client.run_script_lines srv lines) in
  let scatters =
    Option.value ~default:0
      (Lb_util.Metrics.find_counter (Server.metrics srv) "serve.dist.scatters")
  in
  Coordinator.detach coord;
  (replies, scatters)

let run () =
  let rows = ref [] in
  let identical = ref true in
  let last = ref None in
  List.iter
    (fun n ->
      let lines = session (Harness.rng (26_000 + n)) n in
      let ports = [ port_of 0 + n; port_of 1 + n ] in
      let domains = List.map spawn_worker ports in
      let (dist, scatters), t_dist =
        Harness.time (fun () -> run_distributed ~ports lines)
      in
      List.iter2 stop_worker ports domains;
      let single, t_single = Harness.time (fun () -> run_single lines) in
      let same =
        List.length single = List.length dist
        && List.for_all2
             (fun s d ->
               Json.to_string (scrub s) = Json.to_string (scrub d))
             single dist
      in
      if not same then identical := false;
      let tri = List.nth single 1 in
      let count =
        match Json.member "count" tri with Some (Json.Int c) -> c | _ -> -1
      in
      rows :=
        [
          string_of_int n;
          string_of_int count;
          string_of_int scatters;
          Harness.secs t_single;
          Harness.secs t_dist;
          (if same then "yes" else "NO");
        ]
        :: !rows;
      Harness.metric (Printf.sprintf "E26.single_secs.n%d" n) t_single;
      Harness.metric (Printf.sprintf "E26.dist_secs.n%d" n) t_dist;
      last := Some (tri, count, scatters))
    (Harness.sizes [ 24; 48 ]);
  Harness.table
    [ "n"; "triangles"; "scatters"; "single"; "distributed"; "identical" ]
    (List.rev !rows);
  (match !last with
  | None -> ()
  | Some (tri, count, scatters) ->
      Harness.counter "E26.triangles" count;
      Harness.counter "E26.scatters" scatters;
      Harness.counter "E26.gj.intersections"
        (counter_of tri "generic_join.intersections");
      Harness.counter "E26.gj.trie_builds"
        (counter_of tri "generic_join.trie_builds");
      Harness.counter "E26.identical" (if !identical then 1 else 0));
  Harness.contract !identical
    "a coordinator scattering subquery slices over two TCP worker \
     replicas (owned-shard covers, one lead, version-stamped mutation \
     fan-out) reproduced every reply of a single-process sharded \
     server byte for byte modulo wall-clock: rows, counts, and summed \
     per-worker engine counters"

let experiment =
  {
    Harness.id = "E26";
    title = "distributed serve: coordinator/worker scatter bit-identity";
    claim =
      "scattering a sharded WCOJ execution across worker processes and \
       merging the ordered per-worker streams changes where the work \
       runs but nothing that is measured: answers and work counters \
       are byte-identical to the single-process sharded tier";
    run;
  }

(* The seeded session oracle shared by the serve-tier suites.

   - Generator: a session is a seeded list of steps over four relations
     of arity 1-3 - load, insert, delete, queries (random conjunctive
     queries and cyclic shapes; forced engines, count_only, limit,
     max_ticks), colsub, checkpoint, crash-restart, and worker kill and
     restart - closed by a query / write / query epilogue that IVM must
     serve from the maintained cache.
   - Oracle: the catalog as plain sorted row sets ([oracle_apply]),
     queries answered by the hash-join fold [Query.answer] in the
     server's canonical order, colsub counted by brute force.
   - Runner: every configuration cell of {shards 1,3} x {ivm on,off} x
     {durable on,off} x {workers 0,2} (plus a pooled cell) replays the
     session through [Server.handle_line].  Every reply must match the
     oracle.  With "elapsed_ms" removed, the replies of all cells that
     share an ivm setting must be byte-identical; timeout "partial"
     counters are compared only between cells of the same shard count
     (the sharded drivers charge level 0 first).  The pooled cell
     replays the session without tick budgets (its domains share one
     budget unsynchronised) beside a sequential twin.  A worker kill
     shows as "degraded" on the scattered replies of worker cells:
     checked, then scrubbed.  A crash abandons
     a durable cell's server without shutdown and recovers it from its
     data dir (a no-op elsewhere); it always follows a checkpoint and
     writes only, so the recovered result cache equals the live one of
     the other cells.

   The worker-free cells run in test_main ([suite]; the pooled cell and
   its twin in test_ivm); the worker cells fork their workers, which
   OCaml 5 forbids once a domain exists, so they run in test_dist_main
   (test_dist.ml).  Sessions come from Test_property's seed-and-halve
   runner, so a failure reports a replayable (seed, size), the session
   and its first mismatch.  The tier suites also replay short scripted
   sessions (a crash right after a checkpoint, a worker killed before a
   scattered read, every engine forced on one query) through the same
   runner.  The module also holds the reply, instance,
   scratch-directory and forked-listener helpers the tier suites
   share. *)

module Json = Lb_service.Json
module Protocol = Lb_service.Protocol
module Server = Lb_service.Server
module Client = Lb_service.Client
module Worker = Lb_service.Worker
module Coordinator = Lb_service.Coordinator
module Planner = Lb_service.Planner
module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Prng = Lb_util.Prng
module Metrics = Lb_util.Metrics
module Pool = Lb_util.Pool

(* --- reply plumbing --- *)

let failf fmt = Printf.ksprintf failwith fmt

let field name json =
  match Json.member name json with
  | Some v -> v
  | None -> failf "reply lacks %S: %s" name (Json.to_string json)

let status json =
  match field "status" json with
  | Json.String s -> s
  | _ -> failf "non-string status: %s" (Json.to_string json)

let expect_ok ctxt json =
  if status json <> "ok" then
    failf "%s: expected ok, got %s" ctxt (Json.to_string json)

let counter srv name =
  Option.value ~default:0 (Metrics.find_counter (Server.metrics srv) name)

(* --- random join instances: 1-3 atoms over 2-4 variables, arity 1-3,
   repeated variables allowed, every atom its own relation symbol --- *)

let var_pool = [| "a"; "b"; "c"; "d" |]

let random_query rng =
  let nvars = 2 + Prng.int rng 3 in
  let natoms = 1 + Prng.int rng 3 in
  List.init natoms (fun i ->
      let arity = 1 + Prng.int rng 3 in
      let vs = Array.init arity (fun _ -> var_pool.(Prng.int rng nvars)) in
      Q.atom (Printf.sprintf "R%d" i) vs)

(* small active domain so joins actually match; ~5% empty relations *)
let random_db rng (q : Q.t) =
  let dom = 2 + Prng.int rng 4 in
  Db.of_list
    (List.map
       (fun (a : Q.atom) ->
         let arity = Array.length a.Q.attrs in
         let nrows = if Prng.bernoulli rng 0.05 then 0 else 1 + Prng.int rng 12 in
         let tuples =
           List.init nrows (fun _ ->
               Array.init arity (fun _ -> Prng.int rng dom))
         in
         let attrs = Array.init arity (Printf.sprintf "c%d") in
         (a.Q.rel, R.make attrs tuples))
       q)

(* The broom: value 0 of the first variable carries ~half the join
   work of [broom_triangle], so the drivers' skew splitting (and a
   mid-query budget) lands on the hot path. *)
let broom_db n =
  let broom attrs =
    R.make attrs
      ([| 0; 0 |]
      :: List.concat (List.init n (fun i -> [ [| 0; i + 1 |]; [| i + 1; 0 |] ])))
  in
  Db.of_list
    [
      ("R", broom [| "a"; "b" |]);
      ("S", broom [| "b"; "c" |]);
      ("T", broom [| "a"; "c" |]);
    ]

let broom_triangle = Q.parse "R(a,b), S(b,c), T(a,c)"

(* --- scratch directories --- *)

let temp_dir stem = Filename.temp_dir ("lbt_" ^ stem) ""

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* --- forked listeners (worker processes) --- *)

(* Ports unique per test process and per slot; tests run sequentially,
   so a slot is reused only after its previous listener died. *)
let port_of slot = 7400 + (Unix.getpid () mod 997) + (slot * 13)

(* Fork a child running [serve] (it never returns into the test
   runner) and wait until [port] accepts a protocol connection. *)
let fork_listener port serve =
  match Unix.fork () with
  | 0 ->
      (try serve () with _ -> ());
      Unix._exit 0
  | pid ->
      let rec poll tries =
        if tries = 0 then
          failf "listener on port %d never came up" port
        else
          match Client.connect ~timeout_ms:1000 ~port () with
          | Ok c -> Client.close c
          | Error _ ->
              Unix.sleepf 0.01;
              poll (tries - 1)
      in
      poll 500;
      pid

let spawn_worker port = fork_listener port (fun () -> Worker.run ~port ())

let kill_worker pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* Worker processes of the worker cells: slot [w] listens on
   [ports.(w)]; [pids.(w)] is [None] while it is dead. *)
type fleet = { ports : int array; pids : int option array }

let with_fleet n f =
  let ports = Array.init n port_of in
  let fleet = { ports; pids = Array.map (fun p -> Some (spawn_worker p)) ports } in
  Fun.protect
    ~finally:(fun () -> Array.iter (Option.iter kill_worker) fleet.pids)
    (fun () -> f fleet)

let kill fleet w =
  Option.iter kill_worker fleet.pids.(w);
  fleet.pids.(w) <- None

let revive fleet w =
  if fleet.pids.(w) = None then
    fleet.pids.(w) <- Some (spawn_worker fleet.ports.(w))

(* --- the set-semantics oracle --- *)

let sorted_distinct rows =
  let a = Array.of_list rows in
  Array.sort compare a;
  let out = ref [] in
  Array.iter
    (fun r ->
      match !out with h :: _ when compare h r = 0 -> () | _ -> out := r :: !out)
    a;
  Array.of_list (List.rev !out)

(* One write batch, deletes first (the Delta_trie.apply order). *)
let oracle_apply live ~inserts ~deletes =
  let tbl = Hashtbl.create 64 in
  Array.iter (fun r -> Hashtbl.replace tbl (Array.to_list r) r) live;
  List.iter (fun r -> Hashtbl.remove tbl (Array.to_list r)) deletes;
  List.iter
    (fun r ->
      if not (Hashtbl.mem tbl (Array.to_list r)) then
        Hashtbl.replace tbl (Array.to_list r) r)
    inserts;
  sorted_distinct (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])

(* The server's canonical answer: attributes in order of first
   appearance, rows sorted. *)
let canonical_rows (q : Q.t) (rel : R.t) =
  let rows = Array.copy (R.tuples (R.project rel (Q.attributes q))) in
  Array.sort compare rows;
  rows

(* Colorful embeddings of the pattern: maps sending pattern vertex [v]
   to a host vertex of color [v] and every pattern edge onto a host
   edge, counted by brute force. *)
let colsub_count (c : Protocol.colsub_req) =
  let edge (u, v) = List.mem (u, v) c.host_edges || List.mem (v, u) c.host_edges in
  let img = Array.make c.k 0 in
  let rec go v =
    if v = c.k then
      Bool.to_int (List.for_all (fun (a, b) -> edge (img.(a), img.(b))) c.pattern_edges)
    else
      List.fold_left ( + ) 0
        (List.mapi
           (fun h col ->
             if col <> v then 0
             else begin
               img.(v) <- h;
               go (v + 1)
             end)
           c.colors)
  in
  go 0

(* --- the session generator --- *)

type step =
  | Send of Protocol.request  (** one request; its reply is checked *)
  | Crash  (** abandon the server; recover it from its data dir *)
  | Kill of int  (** SIGKILL worker slot [w] *)
  | Restart of int  (** a fresh worker on slot [w]'s port *)

let schema =
  [ ("E", [ "u"; "v" ]); ("F", [ "u"; "v" ]); ("U", [ "a" ]); ("T", [ "a"; "b"; "c" ]) ]

(* Cyclic shapes: WCOJ plans (sharded and scattered in the matching
   cells) and, for the 5-cycle, the decomposition route. *)
let cyclic =
  [|
    "E(x,y), E(y,z), E(z,x)";
    "E(x,y), F(y,z), E(z,x)";
    "E(x,y), E(y,z), E(z,w), E(w,x)";
    "E(x,y), E(y,z), E(z,x), E(x,w)";
    "E(x,y), E(y,z), E(z,w), F(w,v), F(v,x)";
  |]

let triangle = cyclic.(0)

let pick rng a = a.(Prng.int rng (Array.length a))

let random_text rng =
  if Prng.bool rng then pick rng cyclic
  else
    let vars = [| "x"; "y"; "z"; "w" |] in
    let nvars = 2 + Prng.int rng 3 in
    String.concat ", "
      (List.init (1 + Prng.int rng 3) (fun _ ->
           let name, attrs = pick rng (Array.of_list schema) in
           Printf.sprintf "%s(%s)" name
             (String.concat ","
                (List.map (fun _ -> vars.(Prng.int rng nvars)) attrs))))

let random_opts rng =
  let engines = Array.of_list Planner.all_engines in
  {
    Protocol.engine = (if Prng.int rng 5 < 2 then Some (pick rng engines) else None);
    count_only = Prng.int rng 5 = 0;
    limit = (if Prng.int rng 6 = 0 then Some (Prng.int rng 4) else None);
    timeout_ms = None;
    max_ticks = (if Prng.int rng 6 = 0 then Some (1 + Prng.int rng 40) else None);
  }

let random_tuples rng ~width ~n ~dom =
  List.init n (fun _ -> List.init width (fun _ -> Prng.int rng dom))

let random_colsub rng =
  let pairs n = List.concat (List.init n (fun u -> List.init u (fun v -> (v, u)))) in
  let k = 2 + Prng.int rng 2 in
  let n = k + Prng.int rng 4 in
  {
    Protocol.k;
    pattern_edges = List.filter (fun _ -> Prng.bool rng) (pairs k);
    colors = List.init n (fun h -> if h < k then h else Prng.int rng k);
    host_edges = List.filter (fun _ -> Prng.bernoulli rng 0.6) (pairs n);
    meth =
      pick rng
        [| Protocol.Cs_auto; Cs_backtracking; Cs_csp; Cs_decomposition |];
    count = Prng.int rng 4 > 0;
    cs_timeout_ms = None;
    cs_max_ticks = None;
  }

let workers_per_cell = 2

(* Every session, scripted ones included, closes with a query, a write
   to E (which must be loaded) and the same query again: IVM must serve
   the last one from the maintained cache. *)
let epilogue ~dom =
  let tri = Send (Protocol.Query { text = triangle; opts = Protocol.default_opts }) in
  [ tri; Send (Protocol.Insert { name = "E"; tuples = [ [ dom; dom + 1 ] ] }); tri ]

let gen : step list Test_property.gen =
 fun rng ~size ->
  let dom = 3 + (size / 3) in
  let load (name, attrs) =
    Send
      (Protocol.Load
         {
           name;
           attrs;
           tuples =
             random_tuples rng ~width:(List.length attrs)
               ~n:(2 + Prng.int rng (2 * size)) ~dom;
         })
  in
  let write () =
    let name, attrs = pick rng (Array.of_list schema) in
    let tuples =
      random_tuples rng ~width:(List.length attrs) ~n:(1 + Prng.int rng 3) ~dom
    in
    if Prng.int rng 3 = 0 then Send (Protocol.Delete { name; tuples })
    else Send (Protocol.Insert { name; tuples })
  in
  let query text opts = Send (Protocol.Query { text; opts }) in
  let alive = Array.make workers_per_cell true in
  let step () =
    match Prng.int rng 20 with
    | 0 | 1 | 2 | 3 -> [ write () ]
    | 4 -> [ load (pick rng (Array.of_list schema)) ]
    | 5 -> [ Send (Protocol.Colsub (random_colsub rng)) ]
    | 6 -> [ Send Protocol.Checkpoint ]
    | 7 ->
        (* writes only between the checkpoint and the crash: the WAL
           holds records to replay, the snapshot the whole cache *)
        (Send Protocol.Checkpoint :: List.init (1 + Prng.int rng 2) (fun _ -> write ()))
        @ [ Crash ]
    | 8 ->
        let w = Prng.int rng workers_per_cell in
        alive.(w) <- not alive.(w);
        [ (if alive.(w) then Restart w else Kill w) ]
    | _ -> [ query (random_text rng) (random_opts rng) ]
  in
  let body = List.concat (List.init (4 + (4 * size)) (fun _ -> step ())) in
  List.map load schema @ body @ epilogue ~dom

let describe steps =
  String.concat "\n"
    (List.map
       (function
         | Send req -> Protocol.request_to_string req
         | Crash -> "<crash-restart>"
         | Kill w -> Printf.sprintf "<kill worker %d>" w
         | Restart w -> Printf.sprintf "<restart worker %d>" w)
       steps)

(* --- the runner --- *)

type cell = {
  shards : int;
  ivm : bool;
  durable : bool;
  workers : int;
  pooled : bool;
}

let cell_name c =
  Printf.sprintf "{shards %d, ivm %b, durable %b, workers %d%s}" c.shards c.ivm
    c.durable c.workers
    (if c.pooled then ", pool 2" else "")

(* [shards] (default {1,3}) x {ivm on,off} x {durable on,off} at
   [workers]. *)
let matrix ?(shards = [ 1; 3 ]) ~workers () =
  List.concat_map
    (fun shards ->
      List.concat_map
        (fun ivm ->
          List.map
            (fun durable -> { shards; ivm; durable; workers; pooled = false })
            [ false; true ])
        [ true; false ])
    shards

(* The session without tick budgets: the domains of a pooled run share
   one [Budget.t] without synchronisation, so where (and whether) a
   budget fires there is not reproducible. *)
let unbudgeted =
  List.map (function
    | Send (Protocol.Query { text; opts }) ->
        Send (Protocol.Query { text; opts = { opts with max_ticks = None } })
    | step -> step)

let json_rows rows =
  Json.List
    (Array.to_list
       (Array.map
          (fun r -> Json.List (Array.to_list (Array.map (fun v -> Json.Int v) r)))
          rows))

(* Check one query reply's answer against the oracle catalog. *)
let check_query db text (opts : Protocol.query_opts) reply =
  let q = Q.parse text in
  match Json.member "status" reply with
  | Some (Json.String "error") ->
      if
        not
          (opts.engine = Some Planner.Yannakakis
          && not (Lb_relalg.Yannakakis.is_acyclic q))
      then failf "unexpected error"
  | Some (Json.String "timeout") ->
      if opts.max_ticks = None then failf "timeout without a budget"
  | Some (Json.String ("ok" | "degraded")) ->
      let rows = canonical_rows q (Q.answer db q) in
      let n = Array.length rows in
      let expect name want =
        let got = field name reply in
        if got <> want then
          failf "%s: oracle %s, server %s" name (Json.to_string want)
            (Json.to_string got)
      in
      expect "attributes"
        (Json.List
           (List.map (fun a -> Json.String a) (Array.to_list (Q.attributes q))));
      expect "count" (Json.Int n);
      if opts.count_only then begin
        if Json.member "rows" reply <> None then failf "count_only reply has rows"
      end
      else begin
        let cap = Server.default_config.Server.max_rows in
        let shown = min n (match opts.limit with Some l -> min l cap | None -> cap) in
        expect "rows" (json_rows (Array.sub rows 0 shown));
        expect "truncated" (Json.Bool (shown < n))
      end
  | _ -> failf "bad status"

let check_colsub (c : Protocol.colsub_req) reply =
  let n = colsub_count c in
  let name, want =
    if c.count then ("count", Json.Int n) else ("found", Json.Bool (n > 0))
  in
  if field name reply <> want then failf "colsub %s: oracle count %d" name n

(* A reply as the comparison sees it: no "elapsed_ms", none of the
   cell's own marks ("degraded" reads "ok", checkpoint "durable" is
   dropped), and with [~partial:false] no timeout "partial" counters. *)
let scrub ~partial = function
  | Json.Obj fields ->
      Json.to_string
        (Json.Obj
           (List.filter_map
              (function
                | ("elapsed_ms" | "durable"), _ -> None
                | "partial", _ when not partial -> None
                | "status", Json.String "degraded" -> Some ("status", Json.String "ok")
                | kv -> Some kv)
              fields))
  | other -> Json.to_string other

(* Did this reply come from a distributed scatter?  Unbudgeted,
   freshly executed WCOJ reads of a sharded coordinator. *)
let scattered cell (req : Protocol.request) reply =
  match (req, Option.bind (Json.member "plan" reply) (Json.member "engine")) with
  | Protocol.Query { opts; _ }, Some (Json.String ("generic_join" | "leapfrog")) ->
      cell.workers > 0 && cell.shards > 1 && opts.max_ticks = None
      && Json.member "cached" reply = Some (Json.Bool false)
  | _ -> false

(* Replay [steps] on one cell; returns each request line with its
   reply. *)
let run_cell ?pool ?fleet cell steps =
  let dir = if cell.durable then Some (temp_dir "session") else None in
  let config =
    {
      Server.default_config with
      shards = cell.shards;
      ivm = cell.ivm;
      data_dir = dir;
      snapshot_every = 4;
      pool = (if cell.pooled then pool else None);
      protocol_max =
        (if cell.workers > 0 then Protocol.max_version else Protocol.version);
    }
  in
  let fleet = if cell.workers > 0 then Some (Option.get fleet) else None in
  let attach srv =
    Option.map
      (fun f ->
        Coordinator.attach srv ~shards:cell.shards
          ~workers:(Array.to_list (Array.map (fun p -> ("127.0.0.1", p)) f.ports)))
      fleet
  in
  let srv = ref (Server.create ~config ()) in
  let coord = ref (attach !srv) in
  let detach () = Option.iter Coordinator.detach !coord in
  let oracle : (string, string array * int array array) Hashtbl.t = Hashtbl.create 4 in
  let db () =
    Db.of_list
      (Hashtbl.fold
         (fun n (attrs, rows) acc -> (n, R.of_sorted_distinct attrs rows) :: acc)
         oracle [])
  in
  (* WAL records the recovery must replay; scattered reads since the
     server (re)started *)
  let since_snapshot = ref 0 and scatters = ref 0 in
  let out = ref [] in
  let reply_of i req =
    let line = Protocol.request_to_string req in
    let reply = Json.parse (Server.handle_line !srv line) in
    (try
       let dead =
         Option.fold ~none:false ~some:(fun f -> Array.mem None f.pids) fleet
       in
       let scattered = scattered cell req reply in
       if scattered then incr scatters;
       let degraded = Json.member "status" reply = Some (Json.String "degraded") in
       if degraded <> (dead && scattered) then
         failf "degraded status %b expected" (dead && scattered);
       (* a mutation reports the relation's new cardinality and
          appends one WAL record *)
       let mutate name f =
         let attrs, live = Hashtbl.find oracle name in
         let rows = f live in
         Hashtbl.replace oracle name (attrs, rows);
         if field "rows" reply <> Json.Int (Array.length rows) then
           failf "cardinality: oracle %d" (Array.length rows);
         since_snapshot := (!since_snapshot + 1) mod config.snapshot_every
       in
       let rows_of = List.map Array.of_list in
       match req with
       | Protocol.Load { name; attrs; tuples } ->
           Hashtbl.replace oracle name (Array.of_list attrs, [||]);
           mutate name (fun _ -> sorted_distinct (rows_of tuples))
       | Protocol.Insert { name; tuples } ->
           mutate name (oracle_apply ~inserts:(rows_of tuples) ~deletes:[])
       | Protocol.Delete { name; tuples } ->
           mutate name (oracle_apply ~inserts:[] ~deletes:(rows_of tuples))
       | Protocol.Query { text; opts } -> check_query (db ()) text opts reply
       | Protocol.Colsub c -> check_colsub c reply
       | Protocol.Checkpoint ->
           if field "durable" reply <> Json.Bool cell.durable then failf "durable flag";
           since_snapshot := 0
       | _ -> failf "the generator sends no such request"
     with Failure msg ->
       failf "%s step %d %s: %s\nreply: %s" (cell_name cell) i line msg
         (Json.to_string reply));
    out := (line, reply) :: !out
  in
  Fun.protect
    ~finally:(fun () ->
      detach ();
      Option.iter rm_rf dir;
      Option.iter (fun f -> Array.iteri (fun w _ -> revive f w) f.pids) fleet)
    (fun () ->
      List.iteri
        (fun i step ->
          match (step, fleet) with
          | Send req, _ -> reply_of i req
          | Crash, _ when cell.durable ->
              detach ();
              srv := Server.create ~config ();
              coord := attach !srv;
              scatters := 0;
              let replayed = counter !srv "serve.wal.replayed" in
              if replayed <> !since_snapshot then
                failf "%s step %d: recovery replayed %d WAL records, %d logged since \
                       the last snapshot"
                  (cell_name cell) i replayed !since_snapshot
          | Kill w, Some f -> kill f w
          | Restart w, Some f ->
              (* the fork inherits every open descriptor: with the
                 coordinator's connections open, the child would keep
                 the live worker's conversation from ever ending *)
              detach ();
              revive f w
          | (Crash | Kill _ | Restart _), _ -> ())
        steps;
      (* the epilogue's repeated triangle: maintained under IVM,
         recomputed without it; the tiers under test really ran *)
      let _, last = List.hd !out in
      List.iter
        (fun (what, ok) -> if not ok then failf "%s: %s" (cell_name cell) what)
        [
          ( "the query after the last write is cached iff IVM is on",
            Json.member "cached" last = Some (Json.Bool cell.ivm) );
          ( "IVM maintained an entry",
            (not cell.ivm) || counter !srv "serve.ivm.maintained" > 0 );
          ( "a shard view was built",
            cell.shards = 1 || counter !srv "serve.shard.views" > 0 );
          ( "every eligible read scattered",
            counter !srv "serve.dist.scatters" = !scatters );
          ("no scatter fell back", counter !srv "serve.dist.fallbacks" = 0);
        ];
      List.rev !out)

(* Every run must render its replies ([scrub ~partial]) as the first
   run of its group under [key] does. *)
let agree runs ~key ~partial =
  List.iter
    (fun (cb, rb) ->
      let ca, ra = List.find (fun (c, _) -> key c = key cb) runs in
      List.iter2
        (fun (line, x) (_, y) ->
          let x = scrub ~partial x and y = scrub ~partial y in
          if x <> y then
            failf "%s and %s differ at %s:\n%s\n%s" (cell_name ca) (cell_name cb)
              line x y)
        ra rb)
    runs

(* Replay [steps] on every cell and compare the cells; returns each
   cell's request lines and replies. *)
let run_matrix ?pool ?fleet cells steps =
  let runs = List.map (fun c -> (c, run_cell ?pool ?fleet c steps)) cells in
  agree runs ~key:(fun c -> (c.ivm, 0)) ~partial:false;
  agree runs ~key:(fun c -> (c.ivm, c.shards)) ~partial:true;
  runs

(* The property: sessions from the seed-and-halve runner through [run];
   a failure names its (seed, size), the session and the first
   mismatch. *)
let check_sessions ~name run =
  let last = ref "" in
  Test_property.check ~name ~base:0x5E55 gen
    (fun steps -> describe steps ^ "\nfirst mismatch: " ^ !last)
    (fun steps ->
      match run steps with
      | () -> true
      | exception Failure msg ->
          last := msg;
          false)

let suite =
  [
    Alcotest.test_case "matrix: shards/ivm/durable" `Quick (fun () ->
        check_sessions ~name:"session matrix" (fun steps ->
            ignore (run_matrix (matrix ~workers:0 ()) steps)));
  ]

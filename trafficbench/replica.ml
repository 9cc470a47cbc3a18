(* The traced run: the server's request path re-composed from the
   layers' public functions, with a span around every call into a
   layer.  It follows [Server.handle_line] step for step - decode, plan
   cache, planner, lowering, result cache, engine, canonicalisation,
   encoding; on writes the catalog, plan invalidation, IVM maintenance,
   the WAL and checkpoints - with the server's default configuration
   (256-entry plan cache, 128-entry result cache, snapshot every 64 WAL
   records).  No span lives inside the library; the spans are the
   benchmark's own.

   The compiled WCOJ loop nests build their tries inside the engine
   call, so the replica binds and builds the same tries itself just
   before the call, as {e shadow} spans (trie.build) linked to the
   engine span by [shadow_of].  An engine span's self time is its
   duration minus its shadows: the engine's own work without the
   builds.  Replies are encoded with [elapsed_ms] 0, so reply bytes are
   a deterministic count. *)

module S = Lb_service
module Catalog = S.Catalog
module Planner = S.Planner
module Protocol = S.Protocol
module Json = S.Json
module Ivm = S.Ivm
module Wal = S.Wal
module Snapshot = S.Snapshot
module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Trie = Lb_relalg.Trie
module Compile = Lb_relalg.Compile
module Lru = Lb_util.Lru
module Metrics = Lb_util.Metrics
module Exec = Lb_util.Exec

(* --- spans --- *)

type span = {
  sid : int;
  req : int;  (** request id; the root span of a request has [parent = -1] *)
  parent : int;
  name : string;
  t0 : float;
  t1 : float;
  shadow_of : int;  (** -1, or the engine span that repeats this work *)
}

type tracer = {
  mutable spans : span array;
  mutable n : int;
  mutable next_id : int;
  mutable req : int;
  mutable root : int;
  mutable on : bool;
}

let now = Clock.now

let fresh_id tr =
  tr.next_id <- tr.next_id + 1;
  tr.next_id

let record tr s =
  if tr.n = Array.length tr.spans then begin
    let a = Array.make (max 1024 (2 * tr.n)) s in
    Array.blit tr.spans 0 a 0 tr.n;
    tr.spans <- a
  end;
  tr.spans.(tr.n) <- s;
  tr.n <- tr.n + 1

let span tr ?(shadow_of = -1) ?id name f =
  if not tr.on then f ()
  else begin
    let sid = match id with Some i -> i | None -> fresh_id tr in
    let t0 = now () in
    let r = f () in
    let t1 = now () in
    record tr { sid; req = tr.req; parent = tr.root; name; t0; t1; shadow_of };
    r
  end

(* --- the replica server --- *)

type centry = { ans : Ivm.answer; q : Q.t; rels : string list; vv : (string * int) list }

type counts = {
  mutable rows_built : int;
  mutable work : int;
  mutable answer_rows : int;
  mutable delta_rows : int;
  mutable rows_rewritten : int;
  mutable maintained : int;
  mutable invalidated : int;
  mutable wal_bytes : int;
  mutable wal_records : int;
  mutable snapshots : int;
  snapshot_bytes : Stats.acc;
  reply_bytes : Stats.acc;
  plan_share : Stats.acc;
}

type t = {
  catalog : Catalog.t;
  plan_cache : (string, Planner.plan) Lru.t;
  result_cache : (string, centry) Lru.t;
  lifetime : Metrics.t;
  dir : string;
  wal : Wal.writer;
  mutable since_snapshot : int;
  tr : tracer;
  c : counts;
}

let config = S.Server.default_config

let create dir =
  {
    catalog = Catalog.create ();
    plan_cache = Lru.create config.S.Server.plan_cache_size;
    result_cache = Lru.create config.S.Server.result_cache_size;
    lifetime = Metrics.create ();
    dir;
    wal = Wal.open_writer (Filename.concat dir "wal.lbt");
    since_snapshot = 0;
    tr = { spans = [||]; n = 0; next_id = 0; req = 0; root = -1; on = false };
    c =
      {
        rows_built = 0;
        work = 0;
        answer_rows = 0;
        delta_rows = 0;
        rows_rewritten = 0;
        maintained = 0;
        invalidated = 0;
        wal_bytes = 0;
        wal_records = 0;
        snapshots = 0;
        snapshot_bytes = Stats.create ();
        reply_bytes = Stats.create ();
        plan_share = Stats.create ();
      };
  }

let span_ t = span t.tr
let rels_of (q : Q.t) = List.sort_uniq String.compare (List.map (fun (a : Q.atom) -> a.Q.rel) q)
let row_json r = Json.List (List.map (fun v -> Json.Int v) (Array.to_list r))
let strings a = Json.List (List.map (fun s -> Json.String s) (Array.to_list a))

(* Engine work counters an [Exec] sink receives. *)
let work_counters = [ "generic_join.intersections"; "leapfrog.seeks"; "yannakakis.semijoins" ]

(* IVM's maintenance queries: the server's runner recipe - interpreted
   engines chosen by [Planner.choose ~compile:false]. *)
let runner t : Ivm.runner =
 fun db q ->
  let plan = Planner.choose ~compile:false db q in
  let ctx = Exec.make ~metrics:t.lifetime () in
  match plan.Planner.engine with
  | Planner.Yannakakis -> fst (Lb_relalg.Yannakakis.answer ~ctx db q)
  | Planner.Binary_hash -> fst (Lb_relalg.Binary_plan.run db q)
  | Planner.Generic_join -> Lb_relalg.Generic_join.answer ~ctx db q
  | Planner.Leapfrog -> Lb_relalg.Leapfrog.answer ~ctx db q
  | Planner.Decomposed ->
      fst
        (Lb_relalg.Decomposed_join.answer ~ctx
           ?decomposition:plan.Planner.decomposition db q)

(* --- reads --- *)

let plan_weight (plan : Planner.plan) =
  match plan.Planner.compiled with None -> 1 | Some ir -> 1 + (Compile.weight ir / 1024)

let plan t q canonical =
  let key = "auto|" ^ canonical in
  match Lru.find t.plan_cache key with
  | Some p -> `Hit p
  | None -> `Miss (key, Planner.choose ~compile:false (Catalog.database t.catalog) q)

let lower t (p : Planner.plan) q =
  let ce =
    match p.Planner.engine with
    | Planner.Generic_join -> Some Compile.Generic
    | Planner.Leapfrog -> Some Compile.Leapfrog
    | _ -> None
  in
  match ce with
  | None -> p
  | Some engine -> (
      match span_ t "lower" (fun () -> Compile.lower ~engine q) with
      | ir -> { p with Planner.compiled = Some ir }
      | exception Invalid_argument _ -> p)

(* Bind and build every atom's trie as a compiled loop nest is about
   to, as shadow spans of the engine span [eid]. *)
let shadows t eid db (q : Q.t) ~order =
  List.iter
    (fun atom ->
      span_ t ~shadow_of:eid "trie.build" (fun () ->
          let rel = Q.bind_atom db atom in
          t.c.rows_built <- t.c.rows_built + R.cardinality rel;
          ignore (Trie.build ~order rel)))
    q

let execute t (plan : Planner.plan) db q sink =
  let ctx = Exec.make ~metrics:sink () in
  let eid = fresh_id t.tr in
  let run f = span_ t ~id:eid "exec" f in
  match (plan.Planner.engine, plan.Planner.compiled) with
  | (Planner.Generic_join | Planner.Leapfrog), Some ir ->
      if t.tr.on then shadows t eid db q ~order:ir.Compile.order;
      run (fun () -> Compile.answer ~ctx ir db q)
  | Planner.Generic_join, None -> run (fun () -> Lb_relalg.Generic_join.answer ~ctx db q)
  | Planner.Leapfrog, None -> run (fun () -> Lb_relalg.Leapfrog.answer ~ctx db q)
  | Planner.Yannakakis, _ -> run (fun () -> fst (Lb_relalg.Yannakakis.answer ~ctx db q))
  | Planner.Binary_hash, _ ->
      run (fun () ->
          match plan.Planner.atom_order with
          | Some order -> fst (Lb_relalg.Binary_plan.run_order db q order)
          | None -> fst (Lb_relalg.Binary_plan.run db q))
  | Planner.Decomposed, _ ->
      run (fun () ->
          fst
            (Lb_relalg.Decomposed_join.answer ~ctx ~compile:true
               ?decomposition:plan.Planner.decomposition db q))

let encode t (plan : Planner.plan) (opts : Protocol.query_opts) ~cached
    (ans : Ivm.answer) ~elapsed_ms ~counters =
  let plan_json = ref Json.Null in
  let line =
    span_ t "encode" (fun () ->
        let pj = Protocol.plan_to_json plan in
        plan_json := pj;
        let count = Array.length ans.Ivm.rows in
        let max_rows = config.S.Server.max_rows in
        let limit = match opts.Protocol.limit with Some l -> min l max_rows | None -> max_rows in
        let shown = if opts.Protocol.count_only then 0 else min count limit in
        let fields =
          [
            ("plan", pj);
            ("cached", Json.Bool cached);
            ("attributes", strings ans.Ivm.attributes);
            ("count", Json.Int count);
          ]
          @ (if opts.Protocol.count_only then []
             else
               [
                 ("rows", Json.List (List.init shown (fun i -> row_json ans.Ivm.rows.(i))));
                 ("truncated", Json.Bool (shown < count));
               ])
          @ [ ("elapsed_ms", Json.Float elapsed_ms) ]
          @ (match counters with
            | Some c -> [ ("counters", Protocol.counters_to_json c) ]
            | None -> [])
        in
        Json.to_string (Protocol.ok_fields ~op:"query" fields))
  in
  if t.tr.on then begin
    let n = float_of_int (String.length line) in
    Stats.add t.c.reply_bytes n;
    Stats.add t.c.plan_share (float_of_int (String.length (Json.to_string !plan_json)) /. n)
  end;
  line

let query t text (opts : Protocol.query_opts) =
  let q, canonical, planned =
    span_ t "plan" (fun () ->
        let q = Q.parse text in
        let canonical = Q.to_string q in
        (q, canonical, plan t q canonical))
  in
  let p =
    match planned with
    | `Hit p -> p
    | `Miss (key, p) ->
        let p = lower t p q in
        Lru.put ~weight:(plan_weight p) t.plan_cache key p;
        p
  in
  let cached =
    span_ t "cache" (fun () ->
        match Lru.find t.result_cache canonical with
        | Some e when e.vv = Catalog.version_vector t.catalog e.rels -> Some e.ans
        | Some _ ->
            Lru.remove t.result_cache canonical;
            None
        | None -> None)
  in
  match cached with
  | Some ans -> encode t p opts ~cached:true ans ~elapsed_ms:0.0 ~counters:None
  | None ->
      let db = Catalog.database t.catalog in
      let sink = Metrics.create () in
      let rel = execute t p db q sink in
      let ans = span_ t "canonical" (fun () -> Ivm.canonical q rel) in
      if t.tr.on then begin
        List.iter
          (fun k ->
            match Metrics.find_counter sink k with
            | Some n -> t.c.work <- t.c.work + n
            | None -> ())
          work_counters;
        t.c.answer_rows <- t.c.answer_rows + Array.length ans.Ivm.rows
      end;
      Metrics.merge_into ~dst:t.lifetime sink;
      let rels = rels_of q in
      Lru.put t.result_cache canonical
        { ans; q; rels; vv = Catalog.version_vector t.catalog rels };
      encode t p opts ~cached:false ans ~elapsed_ms:0.0 ~counters:(Some (Metrics.counters sink))

(* --- writes --- *)

let invalidate_plans t name =
  List.iter
    (fun (key, _) ->
      match String.index_opt key '|' with
      | None -> ()
      | Some i -> (
          match Q.parse (String.sub key (i + 1) (String.length key - i - 1)) with
          | exception Q.Parse_error _ -> ()
          | q ->
              if List.exists (fun (a : Q.atom) -> a.Q.rel = name) q then
                Lru.remove t.plan_cache key))
    (Lru.to_list t.plan_cache)

let invalidate_results t name =
  List.iter
    (fun (key, e) -> if List.mem name e.rels then Lru.remove t.result_cache key)
    (Lru.to_list t.result_cache)

let maintain t ~db_old ~name ~rows ~insert =
  let db_new = Catalog.database t.catalog in
  let delta = lazy (R.of_sorted_distinct (R.attrs (Db.find db_new name)) rows) in
  List.iter
    (fun (key, e) ->
      let expected_old =
        List.map
          (fun n ->
            (n, if n = name then Catalog.rel_version t.catalog n - 1
                else Catalog.rel_version t.catalog n))
          e.rels
      in
      if not (List.mem name e.rels) then ()
      else if e.vv <> expected_old then begin
        Lru.remove t.result_cache key;
        if t.tr.on then t.c.invalidated <- t.c.invalidated + 1
      end
      else if Array.length rows = 0 then
        Lru.update t.result_cache key (fun e ->
            { e with vv = Catalog.version_vector t.catalog e.rels })
      else
        match
          span_ t "ivm.maintain" (fun () ->
              (if insert then Ivm.insert_maintain else Ivm.delete_maintain)
                ~runner:(runner t) ~db_old ~db_new ~name ~delta:(Lazy.force delta)
                e.q e.ans)
        with
        | ans ->
            Lru.update t.result_cache key (fun e ->
                { e with ans; vv = Catalog.version_vector t.catalog e.rels });
            if t.tr.on then begin
              t.c.maintained <- t.c.maintained + 1;
              t.c.delta_rows <- t.c.delta_rows + Array.length rows;
              t.c.rows_rewritten <- t.c.rows_rewritten + Array.length ans.Ivm.rows
            end
        | exception _ ->
            Lru.remove t.result_cache key;
            if t.tr.on then t.c.invalidated <- t.c.invalidated + 1)
    (Lru.to_list t.result_cache)

(* The server's checkpoint document: relations plus the result cache. *)
let snapshot_doc t =
  let relations =
    List.map
      (fun (name, attrs, tuples, rv) ->
        Json.Obj
          [
            ("name", Json.String name);
            ("attrs", strings attrs);
            ("version", Json.Int rv);
            ("tuples", Json.List (List.map row_json (Array.to_list tuples)));
          ])
      (Catalog.dump t.catalog)
  in
  let results =
    List.map
      (fun (key, e) ->
        Json.Obj
          [
            ("key", Json.String key);
            ("attributes", strings e.ans.Ivm.attributes);
            ("rows", Json.List (List.map row_json (Array.to_list e.ans.Ivm.rows)));
            ("vv", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) e.vv));
          ])
      (Lru.to_list t.result_cache)
  in
  Json.Obj
    [
      ("v", Json.Int 1);
      ("version", Json.Int (Catalog.version t.catalog));
      ("shards", Json.Int (Catalog.shards t.catalog));
      ("relations", Json.List relations);
      ("results", Json.List results);
    ]

let image_of_dump dump =
  List.map
    (fun (name, attrs, (rows : int array array), _) ->
      let nrows = Array.length rows in
      ( name,
        nrows,
        Array.init (Array.length attrs) (fun d ->
            Lb_util.Column.init nrows (fun i -> rows.(i).(d))) ))
    dump

let checkpoint t =
  span_ t "snapshot" (fun () ->
      let doc = snapshot_doc t in
      let path = Filename.concat t.dir "snapshot.lbt" in
      Snapshot.write ~path doc;
      Snapshot.write_image ~path
        ~stamp:(Digest.to_hex (Digest.string (Json.to_string doc)))
        (image_of_dump (Catalog.dump t.catalog));
      Wal.reset t.wal);
  t.since_snapshot <- 0;
  if t.tr.on then begin
    t.c.snapshots <- t.c.snapshots + 1;
    let path = Filename.concat t.dir "snapshot.lbt" in
    let size f = (Unix.stat f).Unix.st_size in
    Stats.add t.c.snapshot_bytes (float_of_int (size path + size (Snapshot.cols_path path)))
  end

let log_mutation t record =
  let before = Wal.size t.wal in
  span_ t "wal.append" (fun () ->
      Wal.append t.wal ~version:(Catalog.version t.catalog) record);
  if t.tr.on then begin
    t.c.wal_bytes <- t.c.wal_bytes + (Wal.size t.wal - before);
    t.c.wal_records <- t.c.wal_records + 1
  end;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot >= config.S.Server.snapshot_every then checkpoint t

let mutation_reply t op name rows =
  span_ t "encode" (fun () ->
      Json.to_string
        (Protocol.ok_fields ~op
           [
             ("relation", Json.String name);
             ("rows", Json.Int rows);
             ("version", Json.Int (Catalog.version t.catalog));
           ]))

let error_reply msg = Json.to_string (Protocol.error_response msg)

let write t ~insert name tuples =
  let tuples = List.map Array.of_list tuples in
  let db_old = Catalog.database t.catalog in
  match
    span_ t "catalog.write" (fun () ->
        (if insert then Catalog.insert else Catalog.delete) t.catalog ~name tuples)
  with
  | Error msg -> error_reply msg
  | Ok (n, rows) ->
      span_ t "plan.invalidate" (fun () -> invalidate_plans t name);
      maintain t ~db_old ~name ~rows ~insert;
      log_mutation t
        (if insert then Wal.Insert { name; tuples } else Wal.Delete { name; tuples });
      mutation_reply t (if insert then "insert" else "delete") name n

let load t name attrs tuples =
  let attrs = Array.of_list attrs and tuples = List.map Array.of_list tuples in
  match Catalog.load t.catalog ~name ~attrs tuples with
  | Error msg -> error_reply msg
  | Ok n ->
      invalidate_plans t name;
      invalidate_results t name;
      log_mutation t (Wal.Load { name; attrs; tuples });
      mutation_reply t "load" name n

(* One request line; [traced] requests get a root span and id. *)
let handle t ~traced line =
  t.tr.on <- traced;
  let go () =
    match span_ t "decode" (fun () -> Protocol.request_of_string_ext line) with
    | Error msg -> error_reply msg
    | Ok (req, _, _) -> (
        match req with
        | Protocol.Query { text; opts } -> query t text opts
        | Protocol.Insert { name; tuples } -> write t ~insert:true name tuples
        | Protocol.Delete { name; tuples } -> write t ~insert:false name tuples
        | Protocol.Load { name; attrs; tuples } -> load t name attrs tuples
        | Protocol.Ping -> Json.to_string (Protocol.ok_fields ~op:"ping" [])
        | Protocol.Checkpoint ->
            checkpoint t;
            Json.to_string (Protocol.ok_fields ~op:"checkpoint" [])
        | _ -> error_reply "replica: op not replayed")
  in
  if not traced then go ()
  else begin
    t.tr.req <- t.tr.req + 1;
    let root = fresh_id t.tr in
    t.tr.root <- root;
    let t0 = now () in
    let r = go () in
    let t1 = now () in
    record t.tr
      { sid = root; req = t.tr.req; parent = -1; name = "request"; t0; t1; shadow_of = -1 };
    t.tr.on <- false;
    r
  end

(* --- reading the trace --- *)

(* Self time of every non-root span, by layer name: a span's duration
   minus the shadows that name it.  [upto] keeps the first requests only. *)
let self_times ?(upto = max_int) tr =
  let shadow = Hashtbl.create 1024 in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    if s.shadow_of >= 0 then
      Hashtbl.replace shadow s.shadow_of
        ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt shadow s.shadow_of))
  done;
  let by_name = Hashtbl.create 32 in
  for i = 0 to tr.n - 1 do
    let s = tr.spans.(i) in
    if s.parent >= 0 && s.req <= upto then begin
      let self =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt shadow s.sid)
      in
      let acc =
        match Hashtbl.find_opt by_name s.name with
        | Some a -> a
        | None ->
            let a = Stats.create () in
            Hashtbl.replace by_name s.name a;
            a
      in
      Stats.add acc self
    end
  done;
  by_name

(* One JSON object per span, one per line, times in microseconds from
   the first span. *)
let write_spans tr path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let base = if tr.n > 0 then tr.spans.(0).t0 else 0.0 in
      let base =
        Array.fold_left (fun b s -> Float.min b s.t0) base (Array.sub tr.spans 0 tr.n)
      in
      for i = 0 to tr.n - 1 do
        let s = tr.spans.(i) in
        Printf.fprintf oc
          "{\"req\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f%s}\n"
          s.req s.sid s.parent s.name
          ((s.t0 -. base) *. 1e6)
          ((s.t1 -. base) *. 1e6)
          (if s.shadow_of >= 0 then Printf.sprintf ",\"shadow_of\":%d" s.shadow_of else "")
      done)

(* Served-traffic benchmark.  See README.md in this directory.

     bench.exe --workload hot-read|cold-join|write-mix --seed N
               --seconds S --trace 0|1
     bench.exe selftest BENCHMARK.json   (tiny pass of every workload)

   The server under test is the [lbt serve] built next to this
   executable.  The last line of standard output is one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. *)

module S = Lb_service
module Json = S.Json
module Server = S.Server

let now = Clock.now

(* --- metric names: BENCHMARK.json lists exactly these --- *)

(* Bounded across changes.  Each holds within its bound across seeds
   and across runs of one program on the 2-vCPU VM these were tuned on,
   where the hypervisor's load moves host speed by 20-60% for minutes at
   a time.  Server CPU per request, throughput and latency do not hold,
   so the traced run reports them instead, unbounded.  The cost of a
   request is bounded through the work the served process allocates for
   it: its own [stats] gc object's minor words per request. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("server_minor_words_per_op", "words/op");
    ("reply_bytes_per_op", "bytes");
    ("server_rss_mb", "MiB");
    ("store_bytes_per_row", "bytes");
  ]

(* Layers timed per call in the traced pass: span name -> metric.  Each
   reports its median self time and its call count. *)
let timed_layers =
  [
    ("decode", "decode.us");
    ("plan", "plan.us");
    ("lower", "lower.us");
    ("trie.build", "trie.build_us");
    ("exec", "exec.us");
    ("canonical", "canonical.us");
    ("encode", "encode.us");
    ("catalog.write", "catalog.write_us");
    ("ivm.maintain", "ivm.maintain_us");
    ("wal.append", "wal.append_us");
    ("snapshot", "snapshot.us");
  ]

let layer_scalars =
  [
    ("wire.overhead_us", "us");
    ("cache.plan_hit_ratio", "ratio");
    ("cache.result_hit_ratio", "ratio");
    ("trie.rows_built", "count");
    ("trie.compactions", "count");
    ("exec.work", "count");
    ("exec.work_per_row", "ratio");
    ("encode.reply_bytes", "bytes");
    ("encode.plan_share", "ratio");
    ("ivm.maintained", "count");
    ("ivm.rows_rewritten_per_delta_row", "ratio");
    ("wal.bytes_per_write", "bytes");
    ("snapshot.bytes", "bytes");
    ("snapshot.count", "count");
    ("gc.minor_words_per_op", "words/op");
    ("replica.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

let per_layer =
  List.concat_map
    (fun m -> [ (m, "us"); (m ^ ".calls", "count") ])
    ("wire.ping_us" :: List.map snd timed_layers)
  @ layer_scalars
  @ [
      ("server_cpu_us_per_op", "us");
      ("ops_per_s", "1/s");
      ("read_p50_ms", "ms");
      ("read_p99_ms", "ms");
      ("recover_s", "s");
    ]

(* Counts that must repeat exactly across two runs with one seed.  The
   served process's minor words ([gc.minor_words_per_op]) are not among
   them: a timed phase serves as many requests as its seconds allow.
   The replica's count over the fixed replayed stream is. *)
let deterministic =
  [
    "exec.work";
    "trie.rows_built";
    "encode.reply_bytes";
    "wal.bytes_per_write";
    "snapshot.count";
    "replica.minor_words_per_op";
  ]

(* --- options --- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** the self-test's small sizes and short phases *)
  inject_wrong : bool;  (** corrupt one expected answer *)
}

exception Usage of string

(* Set-ups and crash recoveries are repeated in batches: at least
   [min_reps] times, then on until the batch took [rep_budget_s], at
   most [max_reps] times.  Cheap ones (a 12 ms recovery) get many
   samples; dear ones do not lengthen the run.  Each reports its fastest
   repetition.  This VM's speed shifts by up to half for seconds at a
   time, so repetitions fall into a fast and a slow mode, in proportions
   that vary from run to run.  A quantile then jumps between the modes;
   the fastest repetition stays in the fast one, and a busy host only
   ever adds time.  Set-up runs one batch before the timed phase and one
   after it, 10 s apart, so that most runs see the fast mode. *)
let min_reps = 6
let max_reps = 16
let rep_budget_s = 1.0

let more_reps ~tiny samples =
  let n = List.length samples in
  if tiny then n < 2
  else n < min_reps || (n < max_reps && List.fold_left ( +. ) 0.0 samples < rep_budget_s)

(* Hard stop for a timed phase, so a run ends well inside three minutes. *)
let max_timed_s = 60.0

(* The self-test's timed phases: long enough for the server's CPU time,
   counted in 10 ms ticks, to be non-zero. *)
let tiny_timed_s = 0.5

(* The client's own collections stay out of the timed round trips: a
   large minor heap, set for the timed phase only. *)
let client_minor_heap = 8 lsl 20

(* --- talking to the server --- *)

let expect_ok what line =
  let r = Oracle.of_line line in
  if r.Oracle.status <> "ok" then failwith (Printf.sprintf "%s: %s" what line);
  line

let stats_request = S.Protocol.request_to_string S.Protocol.Stats

let stats c = Json.parse (expect_ok "stats" (Wire.request c stats_request))

let counter j path =
  let rec go j = function
    | [] -> ( match j with Json.Int n -> n | _ -> 0)
    | k :: rest -> ( match Json.member k j with Some v -> go v rest | None -> 0)
  in
  go j path

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* --- the served run --- *)

(* The timed phase is cut, at burst boundaries, into groups of at least
   [group_reads] reads.  Throughput and read percentiles are taken per
   group, and each run reports its best quartile of groups: the 25th
   percentile of the group latencies, the 75th of the group throughputs.
   A stolen or descheduled vCPU only ever adds time, so the best quartile
   tracks the program's own cost, while the median would track how busy
   the host was.  A run too short for two groups is one group.  1,024
   reads are eight of cold-join's 128-request decks, so every cold-join
   group holds the same shape mix. *)
let group_reads = 1024

type group = { g_reads : Stats.acc;  (** read latency, ms *) mutable g_ops : int; mutable g_s : float }

let new_group () = { g_reads = Stats.create (); g_ops = 0; g_s = 0.0 }

let quantile_over q xs f =
  let a = Stats.create () in
  List.iter (fun x -> Stats.add a (f x)) xs;
  Stats.percentile a q

let best_low xs f = quantile_over 0.25 xs f
let best_high xs f = quantile_over 0.75 xs f

(* Server CPU time is read at the first end of a workload period after
   each second, and CPU per request is the best quartile over these
   windows, by the same reasoning.  Whole periods keep every window's
   mix of work the same (each write-mix window holds whole checkpoint
   cycles); /proc counts CPU time in 10 ms ticks, too coarse for windows
   much under a second. *)
let cpu_window_s = 1.0

type served = {
  setup_s : float;
  stream : Gen.op list list;  (** the timed bursts, in order *)
  replies : Oracle.reply list list;
  groups : group list;
  burst_s : float list;  (** each burst's time to its last reply *)
  n_ops : int;
  reply_bytes : int;  (** reply lines of the timed phase, newlines included *)
  timed_s : float;
  cpu_us_per_op : float;  (** best quartile over CPU windows *)
  rss_mb : float;
  store_bytes : int;
  recover_s : float;
  ping : Stats.acc;  (** depth-1 ping round trips, us *)
  st0 : Json.t;
  st1 : Json.t;
  attempted : int;
  failed : int;
  problems : string list;
}

(* Spawn, load over the wire and warm up: the set-up the first measured
   request waits for.  Warm-up replies are kept for the answer check. *)
let setup (w : Gen.workload) ~dir =
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let t0 = now () in
  let p = Proc.spawn ~data_dir:dir in
  let c = Proc.connect p in
  List.iter (fun rel -> ignore (expect_ok "load" (Wire.request c (Gen.load_line rel)))) w.relations;
  let warm = List.map (fun op -> Oracle.of_line (Wire.request c (Gen.line_of_op op))) w.warm in
  (p, c, now () -. t0, warm)

let served_run (o : opts) (w : Gen.workload) ~dir =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let sdir = Filename.concat dir "server" in
  (* a batch of set-ups; the last one's server stays up *)
  let rec setups acc =
    let p, c, s, warm = setup w ~dir:sdir in
    if not (more_reps ~tiny:o.tiny (s :: acc)) then (p, c, s :: acc, warm)
    else begin
      Wire.close c;
      Proc.kill p;
      setups (s :: acc)
    end
  in
  let p, c, setups_before, warm_replies = setups [] in
  let st0 = stats c in
  let cpu0 = Proc.cpu_s p and client0 = Unix.times () and steal0 = Proc.steal_s () in
  let windows = ref [] and w_cpu = ref cpu0 and w_t = ref 0.0 and w_ops = ref 0 in
  let groups = ref [] and g = ref (new_group ()) and g_t0 = ref 0.0 in
  let stream = ref [] and replies = ref [] and burst_s = ref [] in
  let n_ops = ref 0 and bursts = ref 0 and reply_bytes = ref 0 in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = client_minor_heap };
  let t0 = now () in
  let stop () =
    if o.tiny then !bursts >= w.traced_bursts && now () -. t0 >= tiny_timed_s
    else
      let el = now () -. t0 in
      el >= max_timed_s || (el >= o.seconds && w.may_stop ~bursts:!bursts)
  in
  while not (stop ()) do
    let burst = w.next_burst () in
    let got = Wire.burst c (List.map Gen.line_of_op burst) in
    let rs =
      List.map2
        (fun op (line, dt) ->
          if Gen.is_read op then Stats.add !g.g_reads (dt *. 1e3);
          reply_bytes := !reply_bytes + String.length line + 1;
          Oracle.of_line line)
        burst got
    in
    stream := burst :: !stream;
    replies := rs :: !replies;
    burst_s := List.fold_left (fun m (_, dt) -> Float.max m dt) 0.0 got :: !burst_s;
    n_ops := !n_ops + List.length burst;
    !g.g_ops <- !g.g_ops + List.length burst;
    w_ops := !w_ops + List.length burst;
    incr bursts;
    if !bursts mod w.period = 0 && now () -. t0 -. !w_t >= cpu_window_s then begin
      let cpu = Proc.cpu_s p in
      windows := (cpu -. !w_cpu, !w_ops) :: !windows;
      w_cpu := cpu;
      w_t := now () -. t0;
      w_ops := 0
    end;
    if Stats.count !g.g_reads >= group_reads then begin
      let t = now () -. t0 in
      !g.g_s <- t -. !g_t0;
      g_t0 := t;
      groups := !g :: !groups;
      g := new_group ()
    end
  done;
  let timed_s = now () -. t0 in
  let cpu1 = Proc.cpu_s p and client1 = Unix.times () in
  (* the remainders join the last full window and group *)
  let windows =
    match !windows with
    | (cpu, ops) :: rest -> (cpu +. cpu1 -. !w_cpu, ops + !w_ops) :: rest
    | [] -> [ (cpu1 -. cpu0, !n_ops) ]
  in
  let cpu_us_per_op = best_low windows (fun (cpu, ops) -> cpu /. float_of_int ops *. 1e6) in
  let client_s = Unix.(client1.tms_utime +. client1.tms_stime -. client0.tms_utime -. client0.tms_stime) in
  Printf.eprintf
    "trafficbench %s: server CPU %.1f us/op over %d windows, client CPU %.1f us/op, host steal %.1f%% of the vCPUs\n"
    w.name cpu_us_per_op (List.length windows)
    (client_s /. float_of_int !n_ops *. 1e6)
    (100.0 *. (Proc.steal_s () -. steal0) /. (timed_s *. float_of_int Proc.cpus));
  (match !groups with
  | last :: _ when Stats.count !g.g_reads < group_reads ->
      for i = 0 to Stats.count !g.g_reads - 1 do
        Stats.add last.g_reads !g.g_reads.Stats.data.(i)
      done;
      last.g_ops <- last.g_ops + !g.g_ops;
      last.g_s <- last.g_s +. (timed_s -. !g_t0)
  | _ ->
      if !g.g_ops > 0 then begin
        !g.g_s <- timed_s -. !g_t0;
        groups := !g :: !groups
      end);
  Gc.set gc;
  let st1 = stats c in
  let rss_mb = Proc.peak_rss_mb p in
  let ping = Stats.create () in
  if o.trace then begin
    let line = S.Protocol.request_to_string S.Protocol.Ping in
    for _ = 1 to if o.tiny then 20 else 2000 do
      let t = now () in
      ignore (expect_ok "ping" (Wire.request c line));
      Stats.add ping ((now () -. t) *. 1e6)
    done
  end;
  if w.checkpoint_before_crash then
    ignore (expect_ok "checkpoint" (Wire.request c (S.Protocol.request_to_string S.Protocol.Checkpoint)));
  let store_bytes = Proc.dir_bytes sdir in
  Wire.close c;
  let stream = List.rev !stream and replies = List.rev !replies in
  (* The answer check: warm-up and the timed stream against the mirror. *)
  let m = Oracle.mirror w.relations in
  let attempted = ref 0 and failed = ref 0 in
  let corrupt = ref o.inject_wrong in
  let verdict ?(mirror = m) what op r =
    incr attempted;
    let v = Oracle.check mirror ~corrupt:!corrupt op r in
    if Gen.is_read op then corrupt := false;
    match v with
    | None -> ()
    | Some why ->
        incr failed;
        if !failed <= 5 then problem "%s %s: %s" what (Gen.line_of_op op) why
  in
  List.iter2 (verdict "warm-up") w.warm warm_replies;
  List.iter2 (List.iter2 (verdict "timed")) stream replies;
  (* Crash recovery: SIGKILL, then the clock runs from the restart on the
     same data dir to the answer of the stream's last read, which the
     result cache held.  Then every acknowledged write must be visible:
     each relation read back whole, and the warm-up reads, against the
     mirror's final state. *)
  let first = List.find Gen.is_read (List.rev (List.concat stream)) in
  let rec recover p acc =
    Proc.kill p;
    let t = now () in
    let p' = Proc.spawn ~data_dir:sdir in
    let c' = Proc.connect p' in
    let r = Oracle.of_line (Wire.request c' (Gen.line_of_op first)) in
    let s = now () -. t in
    verdict "recovered" first r;
    if not r.Oracle.cached then problem "guard: the first read after recovery was not cached";
    if not (more_reps ~tiny:o.tiny (s :: acc)) then (p', c', List.fold_left Float.min s acc)
    else begin
      Wire.close c';
      recover p' (s :: acc)
    end
  in
  let p2, c2, recover_s = recover p [] in
  let full name =
    Gen.read ~count_only:false [ { Gen.rel = name; x = "a"; y = "b" } ]
  in
  List.iter
    (fun op -> verdict "recovered" op (Oracle.of_line (Wire.request c2 (Gen.line_of_op op))))
    (List.map (fun (name, _) -> full name) w.relations @ w.warm);
  Wire.close c2;
  Proc.kill p2;
  (* The second batch of set-ups, on a fresh data dir. *)
  let p3, c3, setups_after, warm_after = setups [] in
  Wire.close c3;
  Proc.kill p3;
  (* its warm-up read the initial relations *)
  List.iter2 (verdict ~mirror:(Oracle.mirror w.relations) "warm-up") w.warm warm_after;
  let setup_samples = setups_before @ setups_after in
  Printf.eprintf "trafficbench %s: set-ups (ms) before %s; after %s\n" w.name
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (x *. 1e3)) (List.rev setups_before)))
    (String.concat " " (List.map (fun x -> Printf.sprintf "%.1f" (x *. 1e3)) (List.rev setups_after)));
  (* Workload guards: traffic that missed its layers fails the run. *)
  let d path = counter st1 path - counter st0 path in
  let timed_reads =
    List.concat (List.map2 (List.map2 (fun op r -> (op, r))) stream replies)
    |> List.filter (fun (op, _) -> Gen.is_read op)
  in
  let uncached = List.length (List.filter (fun (_, r) -> not r.Oracle.cached) timed_reads) in
  let overloaded = d [ "counters"; "serve.overloaded" ] in
  if overloaded <> 0 then problem "guard: %d overloaded replies" overloaded;
  (match w.name with
  | "hot-read" -> if uncached > 0 then problem "guard: %d hot reads were not cached" uncached
  | "cold-join" ->
      let rh = d [ "caches"; "result"; "hits" ] and ph = d [ "caches"; "plan"; "hits" ] in
      if rh <> 0 then problem "guard: %d result-cache hits on cold joins" rh;
      if ph <> 0 then problem "guard: %d plan-cache hits on cold joins" ph
  | "write-mix" ->
      let maintained = d [ "counters"; "serve.ivm.maintained" ] in
      let invalidated = d [ "counters"; "serve.ivm.invalidated" ] in
      if maintained <= 0 then problem "guard: IVM maintained nothing";
      if invalidated <> 0 then problem "guard: %d cached answers invalidated" invalidated;
      if uncached > 0 then problem "guard: %d reads missed the cache" uncached
  | _ -> ());
  ( {
    setup_s = List.fold_left Float.min infinity setup_samples;
    stream;
    replies;
    groups = List.rev !groups;
    burst_s = List.rev !burst_s;
    n_ops = !n_ops;
    reply_bytes = !reply_bytes;
    timed_s;
    cpu_us_per_op;
    rss_mb;
    store_bytes;
    recover_s;
    ping;
    st0;
    st1;
    attempted = !attempted;
    failed = !failed;
    problems = List.rev !problems;
  },
    m )

(* --- the traced pass --- *)

let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r

let setup_lines (w : Gen.workload) =
  List.map Gen.load_line w.relations @ List.map Gen.line_of_op w.warm

(* The layer sweep that follows the replayed stream, so every layer
   reports on every workload: a fresh cyclic and a fresh acyclic read, a
   one-row insert and its delete on a relation the cached queries read,
   and a checkpoint.  The row is a self-loop, which no generated graph
   holds. *)
let sweep_lines (w : Gen.workload) =
  let rel = fst (List.hd w.relations) in
  let vars = [| "s0"; "s1"; "s2"; "s3"; "s4" |] in
  let row = [ [| 0; 0 |] ] in
  List.map Gen.line_of_op
    [ Gen.read (Gen.cycle [ rel; rel; rel ] vars); Gen.read (Gen.path [ rel; rel; rel ] vars) ]
  @ [
      Gen.write_line ~rel ~insert:true row;
      Gen.write_line ~rel ~insert:false row;
      S.Protocol.request_to_string S.Protocol.Checkpoint;
    ]

(* Minor words the served process allocated per request of the timed
   phase, from its own [stats] gc object.  OCaml advances these counters
   at minor collections, so the figure is exact to one minor heap (256k
   words) over the whole phase. *)
let served_minor_words_per_op t =
  let d path = counter t.st1 path - counter t.st0 path in
  ratio (d [ "gc"; "minor_words" ]) t.n_ops

(* The ground truth: the real server in process, each [handle_line]
   timed.  Returns each burst's seconds. *)
let twin_replay (w : Gen.workload) ~dir bursts =
  let tdir = Filename.concat dir "twin" in
  Proc.mkdir_p tdir;
  let twin = Server.create ~config:{ Server.default_config with Server.data_dir = Some tdir } () in
  List.iter (fun l -> ignore (Server.handle_line twin l)) (setup_lines w);
  let timed lines =
    List.fold_left
      (fun acc line ->
        let t0 = now () in
        ignore (Server.handle_line twin line);
        acc +. (now () -. t0))
      0.0 lines
  in
  List.map (fun burst -> timed (List.map Gen.line_of_op burst)) bursts

let traced_run (w : Gen.workload) (t : served) ~dir ~trace_file =
  let bursts = take w.traced_bursts t.stream in
  let twin_burst_s = twin_replay w ~dir bursts in
  (* The twin's caches are garbage now; give the memory back before the
     replicas fill their own. *)
  Gc.compact ();
  (* The same stream through two fresh replicas, one untraced and one
     traced, a request to each in turn: both see the same heap and host.
     Alternating which goes first splits the garbage each leaves for the
     other's collections.  Minor words are counted around the untraced
     replica's calls only. *)
  let replica name =
    let rdir = Filename.concat dir name in
    Proc.mkdir_p rdir;
    let r = Replica.create rdir in
    List.iter (fun l -> ignore (Replica.handle r ~traced:false l)) (setup_lines w);
    r
  in
  let plain = replica "replica" and r = replica "replica-traced" in
  let untraced_s = ref 0.0 and traced_s = ref 0.0 and minor = ref 0.0 in
  let timed acc rep ~traced line =
    let w0 = if traced then 0.0 else Gc.minor_words () in
    let t0 = now () in
    ignore (Replica.handle rep ~traced line);
    acc := !acc +. (now () -. t0);
    if not traced then minor := !minor +. (Gc.minor_words () -. w0)
  in
  let stream_lines = List.map Gen.line_of_op (List.concat bursts) in
  let lines = stream_lines @ sweep_lines w in
  List.iteri
    (fun i line ->
      if i land 1 = 0 then begin
        timed untraced_s plain ~traced:false line;
        timed traced_s r ~traced:true line
      end
      else begin
        timed traced_s r ~traced:true line;
        timed untraced_s plain ~traced:false line
      end)
    lines;
  let n_ops = List.length lines in
  Replica.write_spans r.Replica.tr trace_file;
  let selfs = Replica.self_times r.Replica.tr in
  (* coverage compares the stream alone: the sweep is not timed in the twin's total *)
  let layer_sum =
    Hashtbl.fold
      (fun _ a s -> s +. Stats.sum a)
      (Replica.self_times ~upto:(List.length stream_lines) r.Replica.tr)
      0.0
  in
  let timed_metrics =
    List.concat_map
      (fun (metric, acc) ->
        [ (metric, Stats.median acc); (metric ^ ".calls", float_of_int (Stats.count acc)) ])
      (("wire.ping_us", t.ping)
      :: List.map
           (fun (span, metric) ->
             let acc =
               match Hashtbl.find_opt selfs span with
               | Some a ->
                   let us = Stats.create () in
                   for i = 0 to Stats.count a - 1 do
                     Stats.add us (a.Stats.data.(i) *. 1e6)
                   done;
                   us
               | None -> Stats.create ()
             in
             (metric, acc))
           timed_layers)
  in
  let c = r.Replica.c in
  let compactions =
    List.fold_left
      (fun acc (name, _) ->
        match S.Catalog.delta_stats r.Replica.catalog name with
        | Some (_, _, k) -> acc + k
        | None -> acc)
      0 w.relations
  in
  (* Per request of each replayed burst: its TCP time minus the twin's
     [handle_line] time for the same requests. *)
  let wire_overhead = Stats.create () in
  List.iter2
    (fun (burst, tcp) twin ->
      Stats.add wire_overhead ((tcp -. twin) /. float_of_int (List.length burst) *. 1e6))
    (List.combine bursts (take (List.length bursts) t.burst_s))
    twin_burst_s;
  let d path = counter t.st1 path - counter t.st0 path in
  let hit_ratio cache =
    let h = d [ "caches"; cache; "hits" ] and m = d [ "caches"; cache; "misses" ] in
    ratio h (h + m)
  in
  let fi = float_of_int in
  let twin_total = List.fold_left ( +. ) 0.0 twin_burst_s in
  let scalars =
    [
      ("wire.overhead_us", Stats.median wire_overhead);
      ("cache.plan_hit_ratio", hit_ratio "plan");
      ("cache.result_hit_ratio", hit_ratio "result");
      ("trie.rows_built", fi c.Replica.rows_built);
      ("trie.compactions", fi compactions);
      ("exec.work", fi c.Replica.work);
      ("exec.work_per_row", ratio c.Replica.work c.Replica.answer_rows);
      ("encode.reply_bytes", Stats.sum c.Replica.reply_bytes);
      ("encode.plan_share", Stats.median c.Replica.plan_share);
      ("ivm.maintained", fi c.Replica.maintained);
      ("ivm.rows_rewritten_per_delta_row", ratio c.Replica.rows_rewritten c.Replica.delta_rows);
      ("wal.bytes_per_write", ratio c.Replica.wal_bytes c.Replica.wal_records);
      ("snapshot.bytes", Stats.median c.Replica.snapshot_bytes);
      ("snapshot.count", fi c.Replica.snapshots);
      ("gc.minor_words_per_op", served_minor_words_per_op t);
      ("replica.minor_words_per_op", Float.round (!minor /. fi n_ops));
      ("gc.major_collections", fi (d [ "gc"; "major_collections" ]));
      ("trace.coverage", if twin_total > 0.0 then layer_sum /. twin_total else 0.0);
      ("trace.overhead", if !untraced_s > 0.0 then !traced_s /. !untraced_s else 0.0);
    ]
  in
  timed_metrics @ scalars

(* --- running one workload --- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  problems : string list;
}

let run_base = ".trafficbench"

(* The served run's CPU and wall-clock figures. *)
let served_figures t =
  [
    ("server_cpu_us_per_op", t.cpu_us_per_op);
    ("ops_per_s", best_high t.groups (fun g -> float_of_int g.g_ops /. g.g_s));
    ("read_p50_ms", best_low t.groups (fun g -> Stats.median g.g_reads));
    ("read_p99_ms", best_low t.groups (fun g -> Stats.percentile g.g_reads 0.99));
    ("recover_s", t.recover_s);
  ]

let run (o : opts) =
  let w =
    match Gen.make o.workload ~seed:o.seed ~tiny:o.tiny with
    | Some w -> w
    | None -> raise (Usage ("unknown workload " ^ o.workload))
  in
  let dir = Filename.concat run_base (Printf.sprintf "%s-%d-%d" w.name o.seed (Unix.getpid ())) in
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  Fun.protect
    ~finally:(fun () ->
      Proc.kill_all ();
      Proc.rm_rf dir)
    (fun () ->
      let t, m = served_run o w ~dir in
      let unit_of names n = List.assoc n names in
      let metrics =
        if o.trace then
          let trace_file =
            Filename.concat run_base (Printf.sprintf "trace-%s-%d.jsonl" w.name o.seed)
          in
          List.map
            (fun (n, v) -> (n, v, unit_of per_layer n))
            (traced_run w t ~dir ~trace_file @ served_figures t)
        else
          let live_rows =
            List.fold_left (fun s (name, _) -> s + Oracle.cardinality m name) 0 w.relations
          in
          List.map
            (fun (n, v) -> (n, v, unit_of end_to_end n))
            [
              ("setup_s", t.setup_s);
              ("server_minor_words_per_op", served_minor_words_per_op t);
              ("reply_bytes_per_op", float_of_int t.reply_bytes /. float_of_int t.n_ops);
              ("server_rss_mb", t.rss_mb);
              ("store_bytes_per_row", float_of_int t.store_bytes /. float_of_int live_rows);
            ]
      in
      let samples =
        Printf.sprintf "%d ops; read percentiles are best quartiles over %d groups of %d to %d reads"
          t.n_ops (List.length t.groups)
          (List.fold_left (fun m g -> min m (Stats.count g.g_reads)) max_int t.groups)
          (List.fold_left (fun m g -> max m (Stats.count g.g_reads)) 0 t.groups)
      in
      {
        correct = t.failed = 0 && t.problems = [];
        attempted = t.attempted;
        failed = t.failed;
        metrics;
        problems = t.problems;
      }
      |> fun r ->
      Printf.eprintf "trafficbench %s seed %d: %s, %.1f s timed\n" w.name o.seed samples t.timed_s;
      r)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let result_line r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" r.correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_number v) u)
          r.metrics))

let report (o : opts) r =
  Printf.eprintf "trafficbench %s seed %d%s: %d attempted, %d failed\n" o.workload o.seed
    (if o.trace then " (traced)" else "")
    r.attempted r.failed;
  List.iter (fun (n, v, u) -> Printf.eprintf "  %-36s %16.4f %s\n" n v u) r.metrics;
  List.iter (fun p -> Printf.eprintf "  PROBLEM %s\n" p) r.problems

(* --- self-test: every workload at tiny size, traced and untraced; the
   metric set against BENCHMARK.json; the deterministic counts of two
   same-seed traced runs; and the answer check failing on one corrupted
   expectation --- *)

let listed path key =
  let doc = Json.parse (In_channel.with_open_bin path In_channel.input_all) in
  match Json.member key doc with
  | Some (Json.List l) ->
      List.map
        (fun m ->
          match (Json.member "name" m, Json.member "unit" m) with
          | Some (Json.String n), Some (Json.String u) -> (n, u)
          | _ -> ("?", "?"))
        l
  | _ -> []

let selftest bench_json =
  let failures = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        incr failures;
        Printf.eprintf "selftest FAIL: %s\n%!" s)
      fmt
  in
  let sorted = List.sort compare in
  if sorted (listed bench_json "end_to_end") <> sorted end_to_end then
    fail "BENCHMARK.json end_to_end differs from the metrics the benchmark emits";
  if sorted (listed bench_json "per_layer") <> sorted per_layer then
    fail "BENCHMARK.json per_layer differs from the metrics the benchmark emits";
  let base =
    { workload = ""; seed = 7; seconds = 1.0; trace = false; tiny = true; inject_wrong = false }
  in
  List.iter
    (fun name ->
      let go trace =
        let o = { base with workload = name; trace } in
        let r = run o in
        if (not r.correct) || r.failed <> 0 then begin
          report o r;
          fail "%s (trace %b) not correct" name trace
        end;
        let want = if trace then per_layer else end_to_end in
        if List.map fst want <> List.map (fun (n, _, _) -> n) r.metrics then
          fail "%s (trace %b) reported the wrong metric set" name trace;
        if not trace then
          List.iter (fun (n, v, _) -> if not (v > 0.0) then fail "%s: %s = %g" name n v) r.metrics;
        r
      in
      ignore (go false);
      let a = go true and b = go true in
      List.iter
        (fun k ->
          let value r = List.find_map (fun (n, v, _) -> if n = k then Some v else None) r.metrics in
          if value a <> value b then fail "%s: %s differs between two same-seed runs" name k)
        deterministic)
    Gen.names;
  let o = { base with workload = "hot-read"; inject_wrong = true } in
  let r = run o in
  if r.correct || r.failed <> 1 then begin
    report o r;
    fail "a corrupted expected answer was not caught (failed = %d)" r.failed
  end
  else prerr_endline "selftest: the corrupted expected answer was reported as 1 failure";
  if !failures > 0 then exit 1 else prerr_endline "selftest: ok"

let parse_opts args =
  let o =
    ref { workload = ""; seed = 0; seconds = 10.0; trace = false; tiny = false; inject_wrong = false }
  in
  let int_of k v =
    match int_of_string_opt v with Some n -> n | None -> raise (Usage (k ^ " needs an integer"))
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: r ->
        o := { !o with workload = v };
        go r
    | "--seed" :: v :: r ->
        o := { !o with seed = int_of "--seed" v };
        go r
    | "--seconds" :: v :: r ->
        o := { !o with seconds = float_of_int (int_of "--seconds" v) };
        go r
    | "--trace" :: v :: r ->
        o := { !o with trace = int_of "--trace" v <> 0 };
        go r
    | a :: _ -> raise (Usage ("unexpected argument " ^ a))
  in
  go args;
  if not (List.mem !o.workload Gen.names) then
    raise (Usage ("--workload must be one of " ^ String.concat ", " Gen.names));
  !o

let main () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  match List.tl (Array.to_list Sys.argv) with
  | [ "selftest"; path ] -> selftest path
  | args ->
      let o = parse_opts args in
      let r = run o in
      report o r;
      print_endline (result_line r);
      if not r.correct then exit 1

let () =
  match main () with
  | () -> ()
  | exception Usage msg ->
      Proc.kill_all ();
      prerr_endline ("trafficbench: " ^ msg);
      exit 2

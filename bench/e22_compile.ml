(* E22 - the WCOJ executor: every driver of the compiled loop nest
   reproduces the sequential reference exactly.

   The triangle query over a dense random edge relation, lowered once
   per engine through Lb_relalg.Compile and re-run from the cached IR
   on each driver - sequential, Domain-parallel, sharded, and under a
   mid-run budget exhaustion.  The contract is bit-identity: answers
   agree with the Binary_plan hash-join oracle, and the work counters
   (intersections, seeks, emitted, partial counters included) with the
   plain sequential reference enumerators of test/reference/wcoj_ref.ml,
   which share no code with the executor.  The counters recorded here
   are deterministic per seed and survive --counters-only, so
   BENCH_compile.json sits under the same byte-identity determinism
   gate as the other artifacts; the executor's timings are reported as
   float metrics (excluded from the gate). *)

module C = Lb_relalg.Compile
module Ref = Wcoj_ref
module Rel = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Q = Lb_relalg.Query
module Pool = Lb_util.Pool
module Exec = Lb_util.Exec
module Budget = Lb_util.Budget
module Prng = Lb_util.Prng

let triangle = "E(x,y), E(y,z), E(z,x)"

(* Dense directed graph (p = 0.6): enumeration work grows much faster
   than the m log m trie build. *)
let random_db rng n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && Prng.bernoulli rng 0.6 then edges := [| u; v |] :: !edges
    done
  done;
  Db.of_list [ ("E", Rel.make [| "u"; "v" |] !edges) ]

(* (count, work, emitted) of one run; with [~ticks] the run must be cut
   short, and the first component is the ticks spent at exhaustion. *)
let measured ?ticks run =
  let c = C.fresh_counters () in
  let budget = Option.map (fun ticks -> Budget.create ~ticks ()) ticks in
  match Budget.protect (fun () -> run budget c) with
  | Budget.Done n -> ((if ticks = None then n else -1), c.C.work, c.C.emitted)
  | Budget.Exhausted e -> (e.Budget.ticks, c.C.work, c.C.emitted)

let run () =
  let q = Q.parse triangle in
  let irs =
    List.map (fun eng -> (eng, C.lower ~engine:eng q)) [ C.Generic; C.Leapfrog ]
  in
  let rows = ref [] in
  let identical = ref true in
  let last = ref [] in
  List.iter
    (fun n ->
      let rng = Harness.rng (22_000 + n) in
      let db = random_db rng n in
      let oracle, _ = Lb_relalg.Binary_plan.run db q in
      let agree want got = if want <> got then identical := false in
      let ctx ?pool budget = Exec.make ?pool ?budget () in
      let per_engine =
        List.map
          (fun (eng, ir) ->
            let want =
              measured (fun budget counters ->
                  Ref.count ~engine:eng ?budget ~counters db q)
            in
            let (count, _, _) = want in
            if count <> Rel.cardinality oracle then identical := false;
            if not (Rel.equal_modulo_order oracle (C.answer ir db q)) then
              identical := false;
            (* sequential, sharded and Domain-parallel drivers *)
            agree want
              (measured (fun budget counters ->
                   C.count ~counters ~ctx:(ctx budget) ir db q));
            agree want
              (measured (fun budget counters ->
                   C.count_sharded ~counters ~ctx:(ctx budget) ~shards:3 ir db
                     q));
            Pool.with_pool 2 (fun pool ->
                agree want
                  (measured (fun budget counters ->
                       C.count ~counters ~ctx:(ctx ~pool budget) ir db q)));
            (* partial counters after budget exhaustion: the sequential
               run cuts the depth-first order, the sharded one the
               level-0-then-tasks order, as [Ref.count_staged] models
               it *)
            let ticks = 64 in
            agree
              (measured ~ticks (fun budget counters ->
                   Ref.count ~engine:eng ?budget ~counters db q))
              (measured ~ticks (fun budget counters ->
                   C.count ~counters ~ctx:(ctx budget) ir db q));
            agree
              (measured ~ticks (fun budget counters ->
                   Ref.count_staged ~engine:eng ?budget ~counters ~shards:3 db
                     q))
              (measured ~ticks (fun budget counters ->
                   C.count_sharded ~counters ~ctx:(ctx budget) ~shards:3 ir db
                     q));
            let t = Harness.min_time 5 (fun () -> ignore (C.count ir db q)) in
            (eng, (want, t)))
          irs
      in
      let t_build =
        Harness.min_time 5 (fun () ->
            List.iter
              (fun a ->
                ignore
                  (Lb_relalg.Trie.build ~order:(snd (List.hd irs)).C.order
                     (Q.bind_atom db a)))
              q)
      in
      last := per_engine;
      let time eng = snd (List.assoc eng per_engine) in
      rows :=
        [
          string_of_int n;
          string_of_int (Rel.cardinality oracle);
          Harness.secs t_build;
          Harness.secs (time C.Generic);
          Harness.secs (time C.Leapfrog);
        ]
        :: !rows;
      Harness.metric (Printf.sprintf "E22.build_secs.n%d" n) t_build;
      Harness.metric (Printf.sprintf "E22.gj_compiled_secs.n%d" n)
        (time C.Generic);
      Harness.metric (Printf.sprintf "E22.lf_compiled_secs.n%d" n)
        (time C.Leapfrog))
    (Harness.sizes [ 64; 96; 128 ]);
  Harness.table [ "n"; "triangles"; "build"; "gj"; "lf" ] (List.rev !rows);
  (* per-level shape evidence: the loop-nest width at each level of the
     lowered plan - width 1 and 2 levels run the straight-line
     specialized bodies, so for the triangle every level is on the
     specialized path *)
  let gj_ir = List.assoc C.Generic irs in
  Array.iteri
    (fun l _ ->
      Harness.counter
        (Printf.sprintf "E22.ir.np.l%d" l)
        (gj_ir.C.lv_off.(l + 1) - gj_ir.C.lv_off.(l)))
    gj_ir.C.order;
  (match !last with
  | (_, ((count, _, _), _)) :: _ -> Harness.counter "E22.triangles" count
  | [] -> ());
  List.iter
    (fun (eng, ((_, work, emitted), _)) ->
      let tag, unit =
        match eng with
        | C.Generic -> ("gj", "intersections")
        | C.Leapfrog -> ("lf", "seeks")
      in
      Harness.counter (Printf.sprintf "E22.%s.%s" tag unit) work;
      Harness.counter (Printf.sprintf "E22.%s.emitted" tag) emitted;
      Harness.counter
        (Printf.sprintf "E22.ir.weight.%s" tag)
        (C.weight (List.assoc eng irs)))
    !last;
  Harness.counter "E22.identical" (if !identical then 1 else 0);
  Harness.contract !identical
    "the compiled Generic Join and Leapfrog loop nests reproduced the \
     Binary_plan oracle's answers and the sequential reference's counts, \
     work counters and budget-exhaustion partials bit-for-bit on every \
     driver (sequential, sharded k=3, pooled)"

let experiment =
  {
    Harness.id = "E22";
    title = "plan compilation: the WCOJ executor's drivers vs the reference";
    claim =
      "lowering a WCOJ plan once to a monomorphic loop nest over flat int \
       arrays changes no counted unit of work on any driver - answers, \
       counters, and budget ticks stay bit-identical to the textbook \
       sequential enumeration";
    run;
  }

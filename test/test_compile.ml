(* Differential tests for the WCOJ executor (Lb_relalg.Compile).

   The contract under test: for every (query, database) pair and every
   driver - sequential, Domain-parallel, sharded at k in {1,2,3,7}, and
   covers of distributed subsets - the executor produces the oracle's
   answers AND the exact work counters (intersections / seeks /
   emitted) of the sequential reference enumerators in
   test/reference/wcoj_ref.ml, with budget ticks landing at the same
   points.  Partial counters after a mid-query exhaustion: the
   sequential driver's must equal the reference's textbook order; the
   sharded driver's equal [Wcoj_ref.count_staged], a model of its
   level-0-then-deep-tasks order, and separately satisfy checks that
   hold under any merge order.
   The Generic_join / Leapfrog facades are checked against the same
   reference.  "interpreted" in the test names is that reference: the
   plain interpreted form of both engines.  Instances come from
   Session's generators, with the seeds of test_join_engine.ml. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module C = Lb_relalg.Compile
module Ref = Wcoj_ref
module Pool = Lb_util.Pool
module Prng = Lb_util.Prng
module Budget = Lb_util.Budget
module Exec = Lb_util.Exec
module Metrics = Lb_util.Metrics
open Session

let check = Alcotest.check

(* Reference (count, work, emitted) of the sequential enumerator. *)
let reference eng db q =
  let rc = Ref.fresh_counters () in
  let n = Ref.count ~engine:eng ~counters:rc db q in
  (n, rc.Ref.work, rc.Ref.emitted)

(* The facade's count; its own counter record is copied into [c], also
   when a budget cuts the run short. *)
let facade_count eng ?ctx (c : C.counters) db q =
  match eng with
  | C.Generic ->
      let cs = Gj.fresh_counters () in
      Fun.protect
        ~finally:(fun () ->
          c.C.work <- cs.Gj.intersections;
          c.C.emitted <- cs.Gj.emitted)
        (fun () -> Gj.count ~counters:cs ?ctx db q)
  | C.Leapfrog ->
      let cs = Lf.fresh_counters () in
      Fun.protect
        ~finally:(fun () ->
          c.C.work <- cs.Lf.seeks;
          c.C.emitted <- cs.Lf.emitted)
        (fun () -> Lf.count ~counters:cs ?ctx db q)

let engines = [ C.Generic; C.Leapfrog ]

let triple = Alcotest.(triple int int int)

let test_differential_seq () =
  for seed = 1 to 100 do
    let rng = Prng.create (31 * seed) in
    let q = random_query rng in
    let db = random_db rng q in
    let oracle = Q.answer db q in
    List.iter
      (fun eng ->
        let ctxt =
          Printf.sprintf "%s seed %d, query %s" (C.engine_name eng) seed
            (Q.to_string q)
        in
        let ir = C.lower ~engine:eng q in
        let want = reference eng db q in
        let cc = C.fresh_counters () in
        let n_c = C.count ~counters:cc ir db q in
        check triple (ctxt ^ ": count, work, emitted") want
          (n_c, cc.C.work, cc.C.emitted);
        let fc = C.fresh_counters () in
        let n_f = facade_count eng fc db q in
        check triple (ctxt ^ ": facade") want (n_f, fc.C.work, fc.C.emitted);
        let ic = C.fresh_counters () and seen = ref 0 in
        C.iter ~counters:ic ir db q (fun _ -> incr seen);
        check triple (ctxt ^ ": iter") want (!seen, ic.C.work, ic.C.emitted);
        check Alcotest.bool (ctxt ^ ": exists") (n_c > 0) (C.exists ir db q);
        if not (R.equal_modulo_order oracle (C.answer ir db q)) then
          Alcotest.failf "answer disagrees with oracle (%s)" ctxt;
        if not (R.equal (Ref.answer ~engine:eng db q) (C.answer ir db q)) then
          Alcotest.failf "answer disagrees with the reference (%s)" ctxt)
      engines
  done

let test_differential_sharded () =
  List.iter
    (fun shards ->
      for seed = 1 to 50 do
        let rng = Prng.create (31 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        let oracle = Q.answer db q in
        List.iter
          (fun eng ->
            let ctxt =
              Printf.sprintf "%s k=%d seed %d, query %s" (C.engine_name eng)
                shards seed (Q.to_string q)
            in
            let ir = C.lower ~engine:eng q in
            let cc = C.fresh_counters () in
            let n_c = C.count_sharded ~counters:cc ~shards ir db q in
            check triple (ctxt ^ ": count, work, emitted") (reference eng db q)
              (n_c, cc.C.work, cc.C.emitted);
            if
              not
                (R.equal_modulo_order oracle
                   (C.run_sharded ~shards ir db q))
            then
              Alcotest.failf "sharded answer disagrees with oracle (%s)" ctxt)
          engines
      done)
    [ 1; 2; 3; 7 ]

(* Distributed covers: participant p owns the shards s with
   s mod parts = p, participant 0 leads.  Summed counters, the union of
   the rows and the trie-build tick reproduce the single-process run. *)
let test_subset_covers () =
  List.iter
    (fun (shards, parts) ->
      for seed = 1 to 40 do
        let rng = Prng.create (53 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        List.iter
          (fun eng ->
            let ctxt =
              Printf.sprintf "%s k=%d/%d seed %d, query %s" (C.engine_name eng)
                shards parts seed (Q.to_string q)
            in
            let ir = C.lower ~engine:eng q in
            let cc = C.fresh_counters () in
            let m = Metrics.create () in
            let rows =
              List.init parts (fun p ->
                  let subset =
                    { C.owned = (fun s -> s mod parts = p); lead = p = 0 }
                  in
                  R.tuples
                    (C.run_sharded ~counters:cc
                       ~ctx:(Exec.make ~metrics:m ())
                       ~subset ~shards ir db q))
            in
            let n = List.fold_left (fun n r -> n + Array.length r) 0 rows in
            check triple (ctxt ^ ": summed count, work, emitted")
              (reference eng db q)
              (n, cc.C.work, cc.C.emitted);
            if
              not
                (R.equal
                   (R.make ir.C.order (List.concat_map Array.to_list rows))
                   (C.run_sharded ~shards ir db q))
            then Alcotest.failf "covered rows differ (%s)" ctxt;
            let builds =
              if eng = C.Generic then "generic_join.trie_builds"
              else "leapfrog.trie_builds"
            in
            check Alcotest.(option int) (ctxt ^ ": one logical build")
              (Some 1) (Metrics.find_counter m builds))
          engines
      done)
    [ (2, 2); (3, 2); (7, 3) ]

let test_differential_pooled () =
  Pool.with_pool 3 (fun pool ->
      let ctx = Exec.make ~pool () in
      for seed = 1 to 25 do
        let rng = Prng.create (977 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        List.iter
          (fun eng ->
            let ctxt =
              Printf.sprintf "%s seed %d, query %s" (C.engine_name eng) seed
                (Q.to_string q)
            in
            let ir = C.lower ~engine:eng q in
            let cc = C.fresh_counters () in
            let n_c = C.count ~counters:cc ~ctx ir db q in
            check triple (ctxt ^ ": pooled count, work, emitted")
              (reference eng db q)
              (n_c, cc.C.work, cc.C.emitted);
            let cs = C.fresh_counters () in
            let n_s = C.count_sharded ~counters:cs ~ctx ~shards:3 ir db q in
            check triple (ctxt ^ ": pooled sharded") (reference eng db q)
              (n_s, cs.C.work, cs.C.emitted);
            if
              not
                (R.equal (C.answer ir db q) (C.answer ~ctx ir db q))
            then Alcotest.failf "pooled answer differs (%s)" ctxt)
          engines
      done)

(* --- budget exhaustion mid-query: partial counters must match --- *)

(* (ticks at exhaustion, partial work, partial emitted) of a run that
   must exhaust its budget of [ticks]. *)
let partial name ticks run =
  let c = C.fresh_counters () in
  match Budget.protect (fun () -> run (Budget.create ~ticks ()) c) with
  | Budget.Done (_ : int) ->
      Alcotest.failf "%s: expected exhaustion, got Done" name
  | Budget.Exhausted e -> (e.Budget.ticks, c.C.work, c.C.emitted)

(* Checks that hold whatever order the drivers charge and merge their
   counters in: the run spent exactly its budget, and its partial
   counters never exceed the full run's. *)
let order_free name ticks (_, w, e) (t, pw, pe) =
  check Alcotest.int (name ^ ": ticks spent = budget") ticks t;
  if pw > w || pe > e then
    Alcotest.failf "%s: partial (%d, %d) exceeds the full run's (%d, %d)" name
      pw pe w e

let test_budget_exhaustion_partial_counters () =
  let db = broom_db 120 in
  List.iter
    (fun ticks ->
      List.iter
        (fun eng ->
          let name = C.engine_name eng in
          let ir = C.lower ~engine:eng broom_triangle in
          let ctx budget = Exec.make ~budget () in
          let full = reference eng db broom_triangle in
          (* unsharded: the sequential enumeration order *)
          let want =
            partial (name ^ " reference") ticks (fun budget counters ->
                Ref.count ~engine:eng ~budget ~counters db broom_triangle)
          in
          let seq =
            partial name ticks (fun budget counters ->
                C.count ~counters ~ctx:(ctx budget) ir db broom_triangle)
          in
          check triple (name ^ " sequential partials") want seq;
          order_free (name ^ " sequential") ticks full seq;
          check triple (name ^ " facade partials") want
            (partial name ticks (fun budget counters ->
                 facade_count eng ~ctx:(ctx budget) counters db broom_triangle));
          (* sharded: level-0 candidates first, then the deep tasks in
             shard order, which [Ref.count_staged] models *)
          List.iter
            (fun shards ->
              let label = Printf.sprintf "%s sharded k=%d" name shards in
              let got =
                partial label ticks (fun budget counters ->
                    C.count_sharded ~counters ~ctx:(ctx budget) ~shards ir db
                      broom_triangle)
              in
              order_free label ticks full got;
              check triple (label ^ " partials")
                (partial (label ^ " reference") ticks (fun budget counters ->
                     Ref.count_staged ~engine:eng ~budget ~counters ~shards db
                       broom_triangle))
                got)
            [ 1; 3 ])
        engines)
    [ 5; 57; 351 ]

(* --- metrics sink parity: every entry point reports the engine's
   metric names, with the reference's values --- *)

let test_metrics_names () =
  let db = broom_db 40 in
  List.iter
    (fun (eng, prefix, work) ->
      let n, w, e = reference eng db broom_triangle in
      let ir = C.lower ~engine:eng broom_triangle in
      let via_compile = Metrics.create () and via_facade = Metrics.create () in
      ignore (C.count ~ctx:(Exec.make ~metrics:via_compile ()) ir db broom_triangle);
      (match eng with
      | C.Generic -> ignore (Gj.count ~ctx:(Exec.make ~metrics:via_facade ()) db broom_triangle)
      | C.Leapfrog -> ignore (Lf.count ~ctx:(Exec.make ~metrics:via_facade ()) db broom_triangle));
      List.iter
        (fun m ->
          List.iter
            (fun (name, v) ->
              check Alcotest.(option int) (prefix ^ name) (Some v)
                (Metrics.find_counter m (prefix ^ name)))
            [ ("trie_builds", 1); (work, w); ("emitted", e) ])
        [ via_compile; via_facade ];
      check Alcotest.int (prefix ^ " answers") n e)
    [
      (C.Generic, "generic_join.", "intersections");
      (C.Leapfrog, "leapfrog.", "seeks");
    ]

(* --- the IR itself --- *)

let test_lower_shape () =
  let ir = C.lower ~engine:C.Generic broom_triangle in
  check Alcotest.int "nvars" 3 ir.C.nvars;
  check Alcotest.int "natoms" 3 ir.C.natoms;
  check
    Alcotest.(array string)
    "order" [| "a"; "b"; "c" |] ir.C.order;
  (* level 0 (a): R@0, T@0; level 1 (b): R@1, S@0; level 2 (c): S@1, T@1 *)
  check Alcotest.(array int) "lv_off" [| 0; 2; 4; 6 |] ir.C.lv_off;
  check Alcotest.(array int) "lv_atom" [| 0; 2; 0; 1; 1; 2 |] ir.C.lv_atom;
  check Alcotest.(array int) "lv_depth" [| 0; 0; 1; 0; 1; 1 |] ir.C.lv_depth;
  check Alcotest.bool "weight is positive" true (C.weight ir > 0);
  check Alcotest.int "describe lines" (1 + 3)
    (List.length (C.describe ir));
  (* repeated attributes inside an atom collapse to one trie level *)
  let self = Q.parse "R(a,a,b)" in
  let ir2 = C.lower ~engine:C.Leapfrog self in
  check Alcotest.(array int) "self-join lv_depth" [| 0; 1 |] ir2.C.lv_depth

let suite =
  [
    Alcotest.test_case "100 random queries: compiled = interpreted (seq)"
      `Quick test_differential_seq;
    Alcotest.test_case "sharded k in {1,2,3,7}: compiled = interpreted" `Quick
      test_differential_sharded;
    Alcotest.test_case "pooled: compiled = interpreted (25 random)" `Quick
      test_differential_pooled;
    Alcotest.test_case "subset covers sum to the reference" `Quick
      test_subset_covers;
    Alcotest.test_case "budget exhaustion: partial counters match" `Quick
      test_budget_exhaustion_partial_counters;
    Alcotest.test_case "compiled reports interpreted metric names" `Quick
      test_metrics_names;
    Alcotest.test_case "lowered IR shape" `Quick test_lower_shape;
  ]

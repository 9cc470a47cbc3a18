(* Differential and determinism tests for the worst-case-optimal join
   engine.

   - Differential: ~100 random (query, database) pairs (Session's
     generators) are evaluated by Generic Join and Leapfrog Triejoin and
     compared against the naive hash-join oracle (Query.answer: a fold of Relation.natural_join,
     which shares no code with the trie engine).  Queries include unary
     atoms, repeated variables inside an atom, empty relations and
     cross products.
   - Determinism: the Domain-parallel driver must produce the same
     answer relation AND the same counter totals as the sequential
     engine - on skewed (broom) inputs, where task splitting is
     actually exercised, and on random inputs. *)

module Q = Lb_relalg.Query
module R = Lb_relalg.Relation
module Db = Lb_relalg.Database
module Gj = Lb_relalg.Generic_join
module Lf = Lb_relalg.Leapfrog
module Pool = Lb_util.Pool
module Exec = Lb_util.Exec
module Prng = Lb_util.Prng
open Session

let check = Alcotest.check

let test_differential () =
  for seed = 1 to 100 do
    let rng = Prng.create (31 * seed) in
    let q = random_query rng in
    let db = random_db rng q in
    let oracle = Q.answer db q in
    let gj = Gj.answer db q in
    let lf = Lf.answer db q in
    let ctxt = Printf.sprintf "seed %d, query %s" seed (Q.to_string q) in
    if not (R.equal_modulo_order oracle gj) then
      Alcotest.failf "GJ disagrees with oracle (%s)" ctxt;
    if not (R.equal_modulo_order oracle lf) then
      Alcotest.failf "LFTJ disagrees with oracle (%s)" ctxt;
    check Alcotest.int
      (Printf.sprintf "GJ count (%s)" ctxt)
      (R.cardinality oracle) (Gj.count db q);
    check Alcotest.int
      (Printf.sprintf "LFTJ count (%s)" ctxt)
      (R.cardinality oracle) (Lf.count db q)
  done

(* --- parallel determinism --- *)

let test_parallel_matches_sequential_gj () =
  let db = broom_db 150 in
  let cs = Gj.fresh_counters () in
  let n_seq = Gj.count ~counters:cs db broom_triangle in
  let ans_seq = Gj.answer db broom_triangle in
  Pool.with_pool 4 (fun pool ->
      let cp = Gj.fresh_counters () in
      let n_par = Gj.count ~counters:cp ~ctx:(Exec.make ~pool ()) db broom_triangle in
      check Alcotest.int "count" n_seq n_par;
      check Alcotest.int "intersections counter" cs.Gj.intersections
        cp.Gj.intersections;
      check Alcotest.int "emitted counter" cs.Gj.emitted cp.Gj.emitted;
      let ans_par = Gj.answer ~ctx:(Exec.make ~pool ()) db broom_triangle in
      check Alcotest.bool "answer relation" true (R.equal ans_seq ans_par))

let test_parallel_matches_sequential_lf () =
  let db = broom_db 150 in
  let cs = Lf.fresh_counters () in
  let n_seq = Lf.count ~counters:cs db broom_triangle in
  let ans_seq = Lf.answer db broom_triangle in
  Pool.with_pool 4 (fun pool ->
      let cp = Lf.fresh_counters () in
      let n_par = Lf.count ~counters:cp ~ctx:(Exec.make ~pool ()) db broom_triangle in
      check Alcotest.int "count" n_seq n_par;
      check Alcotest.int "seeks counter" cs.Lf.seeks cp.Lf.seeks;
      check Alcotest.int "emitted counter" cs.Lf.emitted cp.Lf.emitted;
      let ans_par = Lf.answer ~ctx:(Exec.make ~pool ()) db broom_triangle in
      check Alcotest.bool "answer relation" true (R.equal ans_seq ans_par))

let test_parallel_random_instances () =
  Pool.with_pool 3 (fun pool ->
      for seed = 1 to 25 do
        let rng = Prng.create (977 * seed) in
        let q = random_query rng in
        let db = random_db rng q in
        let ctxt = Printf.sprintf "seed %d, query %s" seed (Q.to_string q) in
        check Alcotest.int
          (Printf.sprintf "GJ par count (%s)" ctxt)
          (Gj.count db q)
          (Gj.count ~ctx:(Exec.make ~pool ()) db q);
        check Alcotest.int
          (Printf.sprintf "LFTJ par count (%s)" ctxt)
          (Lf.count db q)
          (Lf.count ~ctx:(Exec.make ~pool ()) db q);
        if not (R.equal (Gj.answer db q) (Gj.answer ~ctx:(Exec.make ~pool ()) db q)) then
          Alcotest.failf "GJ par answer differs (%s)" ctxt
      done)

(* a pool of size 1 must behave exactly like no pool at all *)
let test_pool_of_one_is_sequential () =
  let db = broom_db 40 in
  Pool.with_pool 1 (fun pool ->
      let cs = Gj.fresh_counters () in
      let n_seq = Gj.count ~counters:cs db broom_triangle in
      let cp = Gj.fresh_counters () in
      let n_par = Gj.count ~counters:cp ~ctx:(Exec.make ~pool ()) db broom_triangle in
      check Alcotest.int "count" n_seq n_par;
      check Alcotest.int "intersections" cs.Gj.intersections
        cp.Gj.intersections)

let suite =
  [
    Alcotest.test_case "100 random queries: GJ/LFTJ = hash-join oracle" `Quick
      test_differential;
    Alcotest.test_case "parallel GJ = sequential (broom skew)" `Quick
      test_parallel_matches_sequential_gj;
    Alcotest.test_case "parallel LFTJ = sequential (broom skew)" `Quick
      test_parallel_matches_sequential_lf;
    Alcotest.test_case "parallel = sequential on 25 random instances" `Quick
      test_parallel_random_instances;
    Alcotest.test_case "pool of one degenerates to sequential" `Quick
      test_pool_of_one_is_sequential;
  ]

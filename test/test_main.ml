(* Aggregate test runner: one alcotest suite per library. *)

let () =
  Alcotest.run "lowerbounds"
    [
      ("util", Test_util.suite);
      ("lp", Test_lp.suite);
      ("graph", Test_graph.suite);
      ("hypergraph", Test_hypergraph.suite);
      ("sat", Test_sat.suite);
      ("structure", Test_structure.suite);
      ("relalg", Test_relalg.suite);
      ("trie", Test_trie.suite);
      ("column", Test_column.suite);
      ("join_engine", Test_join_engine.suite);
      ("compile", Test_compile.suite);
      ("csp", Test_csp.suite);
      ("reductions", Test_reductions.suite);
      ("colsub", Test_colsub.suite);
      ("finegrained", Test_finegrained.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("polymorphism", Test_polymorphism.suite);
      ("integration", Test_integration.suite);
      ("budget", Test_budget.suite);
      ("service", Test_service.suite);
      ("ivm", Test_ivm.suite);
      ("session", Session.suite);
      ("property", Test_property.suite);
    ]

(* Experiment harness entry point.

   Usage:
     dune exec bench/main.exe              run every experiment (E1-E15)
     dune exec bench/main.exe -- -e E3     run one experiment
     dune exec bench/main.exe -- --list    list experiments
     dune exec bench/main.exe -- --micro   also run the Bechamel micro suite
*)

let register_all () =
  List.iter Harness.register
    [
      E01_agm.experiment;
      E02_wcoj.experiment;
      E03_freuder.experiment;
      E04_dichotomy.experiment;
      E05_special.experiment;
      E06_clique.experiment;
      E07_domset.experiment;
      E08_sat.experiment;
      E09_editdistance.experiment;
      E10_triangle.experiment;
      E11_hyperclique.experiment;
      E12_vertexcover.experiment;
      E13_cores.experiment;
      E14_yannakakis.experiment;
      E15_ov.experiment;
      E16_counting.experiment;
      E17_diameter.experiment;
      E18_transition.experiment;
      E19_seth_bases.experiment;
      E20_serve.experiment;
      E21_shard.experiment;
      E22_compile.experiment;
      E23_ivm.experiment;
      E24_colsub.experiment;
      E25_gc.experiment;
      E26_dist.experiment;
      A1_join_order.experiment;
      A2_ac3.experiment;
      A3_dpll_branching.experiment;
      A4_nice_dp.experiment;
      Micro.matmul_experiment;
    ]

let () =
  register_all ();
  let only = ref [] in
  let list_only = ref false in
  let micro = ref false in
  let bench_json = ref "" in
  let spec =
    [
      ("-e", Arg.String (fun s -> only := s :: !only), "EID run one experiment (repeatable)");
      ("--list", Arg.Set list_only, " list experiments");
      ("--micro", Arg.Set micro, " also run the Bechamel micro suite");
      ("--smoke", Arg.Set Harness.smoke, " run every experiment at tiny sizes");
      ( "--seed",
        Arg.Set_int Harness.seed,
        "N master seed for every workload generator (default 1)" );
      ( "--counters-only",
        Arg.Set Harness.counters_only,
        " record only deterministic counters (byte-identical JSON per seed)" );
      ( "--bench-json",
        Arg.Set_string bench_json,
        "FILE write recorded timing metrics and counters as JSON" );
    ]
  in
  Arg.parse spec (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "lowerbounds experiment harness";
  let experiments = Harness.all () in
  if !list_only then
    List.iter
      (fun (e : Harness.experiment) ->
        Printf.printf "%-4s %s\n" e.Harness.id e.Harness.title)
      experiments
  else begin
    let selected =
      match !only with
      | [] -> experiments
      | ids ->
          List.filter
            (fun (e : Harness.experiment) ->
              List.exists (fun id -> String.uppercase_ascii id = e.Harness.id) ids)
            experiments
    in
    if selected = [] then begin
      prerr_endline "no experiment matched; use --list";
      exit 1
    end;
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (e : Harness.experiment) ->
        Harness.banner e;
        Harness.current := e.Harness.id;
        let t1 = Unix.gettimeofday () in
        e.Harness.run ();
        Printf.printf "(%s elapsed)\n" (Lb_util.Stopwatch.pretty_seconds (Unix.gettimeofday () -. t1)))
      selected;
    if !micro then Micro.run ();
    if !bench_json <> "" then begin
      (match Harness.metrics_to_file !bench_json with
      | () -> Printf.printf "\nWrote metrics to %s.\n" !bench_json
      | exception Sys_error msg ->
          Printf.eprintf "cannot write metrics: %s\n" msg;
          exit 1)
    end;
    Printf.printf "\nAll done in %s.\n"
      (Lb_util.Stopwatch.pretty_seconds (Unix.gettimeofday () -. t0));
    match List.rev !Harness.broken_contracts with
    | [] -> ()
    | ids ->
        Printf.eprintf "contract verdict failed: %s\n" (String.concat ", " ids);
        exit 1
  end

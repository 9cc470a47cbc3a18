(* Shared infrastructure for the experiment harness.

   Each experiment regenerates the quantitative claim of one theorem /
   section of the paper (see DESIGN.md's per-experiment index): it prints
   a table of measured rows and a CLAIM/verdict line comparing the
   measured shape (fitted exponent, winner, crossover) against the
   paper's statement. *)

type experiment = {
  id : string; (* "E1" .. "E15" *)
  title : string;
  claim : string; (* the paper's claim being regenerated *)
  run : unit -> unit; (* prints rows + verdict *)
}

let registry : experiment list ref = ref []

let register e = registry := e :: !registry

let all () = List.rev !registry

(* --- smoke mode ---

   Under [--smoke] every experiment runs at tiny sizes so the whole
   suite finishes in seconds; the dune [bench-smoke] alias runs it under
   [dune runtest] as a regression canary for the harness itself. *)

let smoke = ref false

let rec take k = function
  | [] -> []
  | x :: tl -> if k <= 0 then [] else x :: take (k - 1) tl

(* [sizes xs] is [xs] normally; in smoke mode only the first [keep]
   entries (2 by default - the growth-fit code needs two points). *)
let sizes ?(keep = 2) xs = if !smoke then take keep xs else xs

(* --- reproducible randomness ---

   Every experiment derives its generators from one global seed
   ([--seed], default 1) so that two runs with the same seed produce
   bit-identical workloads.  [rng salt] mixes the salt into the seed so
   distinct call sites get independent streams that don't collapse when
   the seed changes by 1. *)

let seed = ref 1

let rng salt =
  Lb_util.Prng.create ((!seed * 0x2545F4914F6CDD1D) lxor (salt * 0x9E3779B9))

(* --- named metrics, dumped as JSON by [--bench-json] for trajectory
   tracking across PRs ---

   Two kinds: [metric] records wall-clock derived floats (timings, fitted
   exponents - nondeterministic run to run); [counter] records
   deterministic integers (solver tick/work counters - identical across
   runs with the same seed).  [--counters-only] suppresses the float
   kind, making the JSON byte-identical for a fixed seed. *)

let metrics : (string * float) list ref = ref []

let counters : (string * int) list ref = ref []

let counters_only = ref false

let metric name v = if not !counters_only then metrics := (name, v) :: !metrics

let counter name v = counters := (name, v) :: !counters

(* Record every counter of a metrics sink under [prefix]. *)
let counters_of_metrics prefix m =
  List.iter
    (fun (k, v) -> counter (prefix ^ "." ^ k) v)
    (Lb_util.Metrics.counters m)

let metrics_to_file path =
  let oc = open_out path in
  let floats = List.rev_map (fun (k, v) -> (k, `F v)) !metrics in
  let ints = List.rev_map (fun (k, v) -> (k, `I v)) !counters in
  let items = floats @ ints in
  let n = List.length items in
  output_string oc "{\n";
  List.iteri
    (fun i (k, v) ->
      let sep = if i < n - 1 then "," else "" in
      match v with
      | `F v -> Printf.fprintf oc "  %S: %.9f%s\n" k v sep
      | `I v -> Printf.fprintf oc "  %S: %d%s\n" k v sep)
    items;
  output_string oc "}\n";
  close_out oc

let banner (e : experiment) =
  Printf.printf "\n=== %s: %s ===\n" e.id e.title;
  Printf.printf "Paper claim: %s\n\n" e.claim

let table header rows = Lb_util.Tabulate.print ~header rows

(* A shape verdict: a fitted exponent, winner or crossover, meaningful
   only at full sizes - reported, never fatal. *)
let verdict ok msg =
  Printf.printf "\nVERDICT [%s] %s\n" (if ok then "OK" else "CHECK") msg

(* The experiment being run (set by main.exe), and those whose
   contract verdict failed, newest first. *)
let current = ref ""

let broken_contracts : string list ref = ref []

(* A contract verdict: byte identity, counter or oracle agreement,
   which must hold at any size.  Prints like [verdict]; a false one
   makes main.exe exit non-zero after the run, so `dune runtest` fails
   with it. *)
let contract ok msg =
  verdict ok msg;
  if not ok then broken_contracts := !current :: !broken_contracts

(* Format helpers. *)
let f2 x = Printf.sprintf "%.2f" x

let f3 x = Printf.sprintf "%.3f" x

let secs = Lb_util.Stopwatch.pretty_seconds

let fit_power = Lb_util.Stopwatch.fit_power

let fit_exponential = Lb_util.Stopwatch.fit_exponential

let time = Lb_util.Stopwatch.time

let time_per_call = Lb_util.Stopwatch.time_per_call

(* median wall time over r fresh runs of f *)
let median_time r f =
  let samples =
    List.init r (fun _ ->
        let _, t = time f in
        t)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (r / 2)

(* minimum wall time over r fresh runs of f: scheduler and GC
   interference only ever add time, so the minimum is the most stable
   estimator of a deterministic workload's cost on a loaded machine.
   Each repetition starts from an empty minor heap and no pending major
   work ([Gc.full_major]), so garbage from run k can never donate a
   mark slice or collection to run k+1 - without this the minimum
   systematically favours whichever repetition inherited the cleanest
   heap. *)
let min_time r f =
  List.fold_left Float.min Float.infinity
    (List.init r (fun _ ->
         Gc.full_major ();
         let _, t = time f in
         t))

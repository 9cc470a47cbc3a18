(* Seeded inputs of the three workloads.  The server only ever sees what
   these generators produce: the relations loaded at set-up, the warm-up
   lines, and the measured request stream, sent in fixed-size bursts.
   Everything is a function of the seed, so two runs with one seed send
   byte-identical lines in the same bursts. *)

module P = Lb_service.Protocol

(* One atom [rel(x, y)] of a query over binary relations. *)
type atom = { rel : string; x : string; y : string }

type op =
  | Read of {
      text : string;
      atoms : atom list;  (** the query, for the oracle (it never parses) *)
      line : string;
      count_only : bool;
      limit : int option;
    }
  | Write of { rel : string; insert : bool; rows : int array list; line : string }

let line_of_op = function Read r -> r.line | Write w -> w.line
let is_read = function Read _ -> true | Write _ -> false

type workload = {
  name : string;
  relations : (string * int array list) list;  (** loaded at set-up *)
  warm : op list;  (** sent after the loads, before the timed phase *)
  next_burst : unit -> op list;
      (** the measured stream, endless; a burst's length is the pipeline
          depth *)
  period : int;
      (** bursts after which the stream's mix of work repeats: a window
          of whole periods carries the workload's average cost *)
  may_stop : bursts:int -> bool;
      (** whether a timed phase that has run its time may stop here *)
  traced_bursts : int;  (** bursts the traced pass replays in process *)
  checkpoint_before_crash : bool;
      (** checkpoint before the crash, so recovery restores the cached
          answers from a snapshot: read-only workloads, whose WAL holds
          only the loads *)
}

let names = [ "hot-read"; "cold-join"; "write-mix" ]

let text_of atoms =
  String.concat ", " (List.map (fun a -> Printf.sprintf "%s(%s,%s)" a.rel a.x a.y) atoms)

let read ?(count_only = true) ?limit atoms =
  let text = text_of atoms in
  let line =
    P.request_to_string (P.Query { text; opts = { P.default_opts with P.count_only; limit } })
  in
  Read { text; atoms; line; count_only; limit }

let write_line ~rel ~insert rows =
  let tuples = List.map Array.to_list rows in
  P.request_to_string
    (if insert then P.Insert { name = rel; tuples } else P.Delete { name = rel; tuples })

let load_line (name, rows) =
  P.request_to_string
    (P.Load { name; attrs = [ "a"; "b" ]; tuples = List.map Array.to_list rows })

(* A random [k]-regular directed graph on [v] vertices: the union of
   [k] random permutations, repaired by swaps so that no vertex maps to
   itself or twice to one target.  Every vertex has out- and in-degree
   exactly [k], so path counts (a 2-path answer has [v * k * k] rows, a
   3-path answer [v * k^3]) do not vary with the seed - only which
   edges exist does. *)
let regular_edges rng ~v ~k =
  let out = Array.make_matrix v k (-1) in
  for j = 0 to k - 1 do
    let p = Array.init v Fun.id in
    for i = v - 1 downto 1 do
      let r = Random.State.int rng (i + 1) in
      let x = p.(i) in
      p.(i) <- p.(r);
      p.(r) <- x
    done;
    let ok x t =
      t <> x
      &&
      let rec free i = i = j || (out.(x).(i) <> t && free (i + 1)) in
      free 0
    in
    let rec repair () =
      let dirty = ref false in
      for x = 0 to v - 1 do
        if not (ok x p.(x)) then begin
          dirty := true;
          let y = Random.State.int rng v in
          if ok x p.(y) && ok y p.(x) then begin
            let t = p.(x) in
            p.(x) <- p.(y);
            p.(y) <- t
          end
        end
      done;
      if !dirty then repair ()
    in
    repair ();
    Array.iteri (fun x t -> out.(x).(j) <- t) p
  done;
  List.concat (List.init k (fun j -> List.init v (fun x -> [| x; out.(x).(j) |])))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* A write stream over a [k]-regular graph that keeps it [k]-regular.
   Writes alternate: a delete of four edges (a,b), (c,d), (e,f), (g,h),
   then an insert of their swaps (a,d), (c,b), (e,h), (g,f).  Double-edge
   swaps preserve every in- and out-degree, so after each insert the
   2-path and 3-path answers have exactly [v * k^2] and [v * k^3] rows
   again: the cost of maintaining them cannot drift with run length or
   vary with the seed. *)
let swap_writer rng ~rel ~v ~k =
  let edges = Array.of_list (regular_edges rng ~v ~k) in
  let n = Array.length edges in
  let present = Hashtbl.create (2 * n) in
  Array.iter (fun e -> Hashtbl.replace present (e.(0), e.(1)) ()) edges;
  let initial = Array.to_list (Array.map Array.copy edges) in
  let pending = ref None in
  (* Two slots whose edges swap into two edges absent now and not
     already chosen, touching no slot already taken. *)
  let rec pick_swap taken fresh =
    let i = Random.State.int rng n and j = Random.State.int rng n in
    let e1 = edges.(i) and e2 = edges.(j) in
    let a = e1.(0) and b = e1.(1) and c = e2.(0) and d = e2.(1) in
    let ok (x, y) = x <> y && (not (Hashtbl.mem present (x, y))) && not (List.mem (x, y) fresh) in
    if i = j || List.mem i taken || List.mem j taken || not (ok (a, d) && ok (c, b) && (a, d) <> (c, b))
    then pick_swap taken fresh
    else ((i, [| a; d |]), (j, [| c; b |]))
  in
  let next () =
    match !pending with
    | Some rows ->
        pending := None;
        Write { rel; insert = true; rows; line = write_line ~rel ~insert:true rows }
    | None ->
        let (i1, n1), (j1, m1) = pick_swap [] [] in
        let (i2, n2), (j2, m2) =
          pick_swap [ i1; j1 ] [ (n1.(0), n1.(1)); (m1.(0), m1.(1)) ]
        in
        let slots = [ (i1, n1); (j1, m1); (i2, n2); (j2, m2) ] in
        let gone = List.map (fun (i, _) -> edges.(i)) slots in
        List.iter (fun e -> Hashtbl.remove present (e.(0), e.(1))) gone;
        List.iter
          (fun (i, e) ->
            edges.(i) <- e;
            Hashtbl.replace present (e.(0), e.(1)) ())
          slots;
        pending := Some (List.map snd slots);
        Write { rel; insert = false; rows = gone; line = write_line ~rel ~insert:false gone }
  in
  (initial, next)

(* Query shapes over binary atoms; [rels] names each atom's relation. *)
let cycle rels vars =
  let k = List.length rels in
  List.mapi (fun j rel -> { rel; x = vars.(j); y = vars.((j + 1) mod k) }) rels

let path rels vars = List.mapi (fun j rel -> { rel; x = vars.(j); y = vars.(j + 1) }) rels
let abcd = [| "a"; "b"; "c"; "d" |]
let triangle = cycle [ "E"; "E"; "E" ] abcd
let path2 = path [ "E"; "E" ] abcd
let path3 = path [ "E"; "E"; "E" ] abcd
let cycle4 = cycle [ "E"; "E"; "E"; "E" ] abcd

(* Hot reads: six forms over one 4-regular graph, each a result-cache
   hit once warmed, sent 16 to a burst.  A cached reply's cost does not
   depend on the graph's size.  500 vertices make set-up (load plus the
   six first evaluations, about 45 ms) ten times process start, yet
   short enough to repeat a dozen times per batch. *)
let hot_read ~seed ~tiny =
  let rng = Random.State.make [| seed; 1 |] in
  let v = if tiny then 60 else 500 in
  let e = regular_edges rng ~v ~k:4 in
  let forms =
    Array.of_list
      (List.concat_map
         (fun q -> [ read q; read ~count_only:false ~limit:16 q ])
         [ triangle; path2; cycle4 ])
  in
  let depth = 16 in
  {
    name = "hot-read";
    relations = [ ("E", e) ];
    warm = Array.to_list forms;
    next_burst =
      (fun () -> List.init depth (fun _ -> forms.(Random.State.int rng (Array.length forms))));
    period = 1;
    may_stop = (fun ~bursts:_ -> true);
    traced_bursts = (if tiny then 4 else 1024);
    checkpoint_before_crash = true;
  }

(* Cold joins: fresh variable names per request, so neither the plan
   cache nor the result cache ever sees a canonical text twice.  Shapes
   are dealt from a shuffled deck of 128 - the result cache's capacity -
   holding the mix exactly (triangle 35%, 4-cycle and 3-path 20% each,
   2-path 22%, 5-cycle 2.3%), so a run's mix does not vary with the
   seed.  The 5-cycle is the shape the planner routes through a
   decomposition (fhw 2 < rho* 2.5), cycles of 3 and 4 run the
   compiled leapfrog loop nest, and both paths, being acyclic, run
   Yannakakis.  (The planner sends only cyclic queries of at most two
   atoms to a binary hash join, and over binary relations there are
   none.) *)
let shape_mix = [ (`Cycle 3, 45); (`Cycle 4, 26); (`Path 3, 26); (`Path 2, 28); (`Cycle 5, 3) ]
let deck_size = List.fold_left (fun s (_, k) -> s + k) 0 shape_mix

let cold_join ~seed ~tiny =
  let rng = Random.State.make [| seed; 2 |] in
  let nrel, v = if tiny then (4, 20) else (16, 60) in
  let rels = List.init nrel (fun i -> (Printf.sprintf "R%d" i, regular_edges rng ~v ~k:3)) in
  let counter = ref 0 in
  let fresh prefix shape =
    incr counter;
    let vars = Array.init 5 (fun j -> Printf.sprintf "%s%d_%d" prefix !counter j) in
    let rels k = List.init k (fun _ -> Printf.sprintf "R%d" (Random.State.int rng nrel)) in
    read
      (match shape with
      | `Cycle k -> cycle (rels k) vars
      | `Path k -> path (rels k) vars)
  in
  let deck = Array.of_list (List.concat_map (fun (s, k) -> List.init k (fun _ -> s)) shape_mix) in
  let dealt = ref deck_size in
  let deal () =
    if !dealt = deck_size then begin
      shuffle rng deck;
      dealt := 0
    end;
    incr dealt;
    deck.(!dealt - 1)
  in
  let depth = 4 in
  {
    name = "cold-join";
    relations = rels;
    (* every shape once, so the first measured request of each shape
       does not pay the server's first-use costs *)
    warm = List.map (fresh "w") [ `Cycle 3; `Cycle 4; `Path 3; `Path 2; `Cycle 5 ];
    next_burst = (fun () -> List.init depth (fun _ -> fresh "q" (deal ())));
    (* whole decks, so every run serves the same shape mix *)
    period = deck_size / depth;
    may_stop = (fun ~bursts -> depth * bursts mod deck_size = 0);
    traced_bursts = (if tiny then 2 else deck_size / depth);
    checkpoint_before_crash = true;
  }

(* Write-mix: each burst is one 4-row delete or insert on E followed by
   seven reads of the four cached queries over E, so every read is
   answered from a cache entry that IVM has just maintained.  E stays a
   4-regular graph on 150 vertices (600 rows) after every insert. *)
let write_mix ~seed ~tiny =
  let rng = Random.State.make [| seed; 3 |] in
  let v = if tiny then 15 else 150 in
  let e0, next_write = swap_writer rng ~rel:"E" ~v ~k:4 in
  let reads = Array.of_list (List.map (fun q -> read q) [ triangle; path2; path3; cycle4 ]) in
  let every = Lb_service.Server.default_config.Lb_service.Server.snapshot_every in
  let depth = 8 in
  {
    name = "write-mix";
    relations = [ ("E", e0) ];
    warm = Array.to_list reads;
    next_burst =
      (fun () ->
        let write = next_write () in
        write :: List.init (depth - 1) (fun _ -> reads.(Random.State.int rng (Array.length reads))));
    (* one checkpoint per 64 writes *)
    period = every;
    (* Stop with the WAL half a checkpoint interval past its last
       snapshot (the load is one record, each write one more), so every
       run's recovery replays the same number of records. *)
    may_stop = (fun ~bursts -> (1 + bursts) mod every = every / 2);
    traced_bursts = (if tiny then 8 else 2 * every);
    checkpoint_before_crash = false;
  }

let make name ~seed ~tiny =
  match name with
  | "hot-read" -> Some (hot_read ~seed ~tiny)
  | "cold-join" -> Some (cold_join ~seed ~tiny)
  | "write-mix" -> Some (write_mix ~seed ~tiny)
  | _ -> None

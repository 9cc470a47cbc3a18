(* Sequential reference for the worst-case-optimal join executor.

   Lb_relalg.Compile is the only executor the library ships; this is a
   deliberately plain second implementation of its two intersection
   primitives, written against the Trie API (bounds-checked gallops,
   per-level participant tables built from the tries' own schemas) and
   sharing no code with Compile's loop nests.  The differential tests
   and bench E22 use it as the independent source of exact counters:
   [work] = enumerated leader keys (Generic Join) or seeks of lagging
   iterators (Leapfrog), [emitted] = answers, and budget ticks placed
   where the textbook accounting charges them - once per leader key
   (Generic Join), once per agreed key and per seek (Leapfrog). *)

module Budget = Lb_util.Budget
module Column = Lb_util.Column
module Trie = Lb_relalg.Trie
module Query = Lb_relalg.Query
module Relation = Lb_relalg.Relation
module Shard = Lb_relalg.Shard

type engine = Lb_relalg.Compile.engine = Generic | Leapfrog

(* The executor's own record, so both fill the same counters; only the
   type is shared, not any enumeration code. *)
type counters = Lb_relalg.Compile.counters = {
  mutable work : int;
  mutable emitted : int;
}

let fresh_counters () = { work = 0; emitted = 0 }

(* --- join context: tries plus, per level, the participating atoms and
   the trie column each exposes there --- *)

type ctx = {
  tries : Trie.t array;
  nvars : int;
  natoms : int;
  participants : int array array;
  pcols : Column.t array array;
  bud : Budget.t option;
}

let make_ctx ?budget ~order db (q : Query.t) =
  let tries =
    Array.of_list
      (List.map (fun a -> Trie.build ~order (Query.bind_atom db a)) q)
  in
  let natoms = Array.length tries in
  let nvars = Array.length order in
  let participants = Array.make nvars [||] in
  let pcols = Array.make nvars [||] in
  for l = 0 to nvars - 1 do
    let ids = ref [] in
    for i = natoms - 1 downto 0 do
      let ats = Trie.attrs tries.(i) in
      for d = 0 to Array.length ats - 1 do
        if ats.(d) = order.(l) then ids := (i, d) :: !ids
      done
    done;
    participants.(l) <- Array.of_list (List.map fst !ids);
    pcols.(l) <-
      Array.of_list (List.map (fun (i, d) -> Trie.column tries.(i) d) !ids)
  done;
  { tries; nvars; natoms; participants; pcols; bud = budget }

let tick ctx = match ctx.bud with Some b -> Budget.tick b | None -> ()

(* --- per-run workspace: stack.(level) holds (lo, hi) per atom --- *)

type ws = {
  stack : int array array;
  cursors : int array array;
  assignment : int array;
}

let make_ws ctx =
  let ws =
    {
      stack =
        Array.init (ctx.nvars + 1) (fun _ ->
            Array.make (max 1 (2 * ctx.natoms)) 0);
      cursors =
        Array.init (max 1 ctx.nvars) (fun _ -> Array.make (max 1 ctx.natoms) 0);
      assignment = Array.make (max 1 ctx.nvars) 0;
    }
  in
  Array.iteri
    (fun i t ->
      ws.stack.(0).(2 * i) <- 0;
      ws.stack.(0).((2 * i) + 1) <- Trie.row_count t)
    ctx.tries;
  ws

(* Generic Join: enumerate the smallest participant range (first wins)
   and probe the others by forward galloping cursors; an exhausted
   stream ends the level. *)
let rec enum_gj ctx ws c ~level ~stop on_leaf =
  if level >= stop then on_leaf ()
  else begin
    let ps = ctx.participants.(level) in
    let np = Array.length ps in
    if np = 0 then invalid_arg "Wcoj_ref: variable missing from all atoms";
    let cols = ctx.pcols.(level) in
    let st = ws.stack.(level) and st' = ws.stack.(level + 1) in
    Array.blit st 0 st' 0 (2 * ctx.natoms);
    let lj = ref 0 and lsize = ref max_int in
    Array.iteri
      (fun j i ->
        let s = st.((2 * i) + 1) - st.(2 * i) in
        if s < !lsize then begin
          lsize := s;
          lj := j
        end)
      ps;
    let lj = !lj in
    let leader = ps.(lj) in
    let lhi = st.((2 * leader) + 1) in
    let cur = ws.cursors.(level) in
    Array.iteri (fun j i -> cur.(j) <- st.(2 * i)) ps;
    let pos = ref st.(2 * leader) in
    let dead = ref false in
    while (not !dead) && !pos < lhi do
      let v = Column.get cols.(lj) !pos in
      let e = Trie.gallop_gt cols.(lj) !pos lhi v in
      c.work <- c.work + 1;
      tick ctx;
      let ok = ref true in
      let j = ref 0 in
      while !ok && !j < np do
        if !j <> lj then begin
          let i = ps.(!j) in
          let hi = st.((2 * i) + 1) in
          let p = Trie.gallop_geq cols.(!j) cur.(!j) hi v in
          cur.(!j) <- p;
          if p >= hi then begin
            ok := false;
            dead := true
          end
          else if Column.get cols.(!j) p <> v then ok := false
          else begin
            st'.(2 * i) <- p;
            st'.((2 * i) + 1) <- Trie.gallop_gt cols.(!j) p hi v
          end
        end;
        incr j
      done;
      if !ok then begin
        st'.(2 * leader) <- !pos;
        st'.((2 * leader) + 1) <- e;
        ws.assignment.(level) <- v;
        enum_gj ctx ws c ~level:(level + 1) ~stop on_leaf
      end;
      pos := e
    done
  end

(* Leapfrog: seek every lagging iterator to the current maximum key
   until all agree; the in-loop [fin] guard stops the remaining seeks
   once one stream exhausts. *)
let rec enum_lf ctx ws c ~level ~stop on_leaf =
  if level >= stop then on_leaf ()
  else begin
    let ps = ctx.participants.(level) in
    let np = Array.length ps in
    if np = 0 then invalid_arg "Wcoj_ref: variable missing from all atoms";
    let cols = ctx.pcols.(level) in
    let st = ws.stack.(level) and st' = ws.stack.(level + 1) in
    Array.blit st 0 st' 0 (2 * ctx.natoms);
    let pos = ws.cursors.(level) in
    let fin = ref false in
    Array.iteri
      (fun j i ->
        pos.(j) <- st.(2 * i);
        if st.(2 * i) >= st.((2 * i) + 1) then fin := true)
      ps;
    while not !fin do
      let keys = Array.init np (fun j -> Column.get cols.(j) pos.(j)) in
      let kmax = Array.fold_left max keys.(0) keys in
      let kmin = Array.fold_left min keys.(0) keys in
      if kmin = kmax then begin
        tick ctx;
        Array.iteri
          (fun j i ->
            st'.(2 * i) <- pos.(j);
            st'.((2 * i) + 1) <- Trie.gallop_gt cols.(j) pos.(j) st.((2 * i) + 1) kmin)
          ps;
        ws.assignment.(level) <- kmin;
        enum_lf ctx ws c ~level:(level + 1) ~stop on_leaf;
        Array.iteri
          (fun j i ->
            pos.(j) <- st'.((2 * i) + 1);
            if pos.(j) >= st.((2 * i) + 1) then fin := true)
          ps
      end
      else
        Array.iteri
          (fun j i ->
            if (not !fin) && Column.get cols.(j) pos.(j) < kmax then begin
              c.work <- c.work + 1;
              tick ctx;
              pos.(j) <- Trie.gallop_geq cols.(j) pos.(j) st.((2 * i) + 1) kmax;
              if pos.(j) >= st.((2 * i) + 1) then fin := true
            end)
          ps
    done
  end

let enum = function Generic -> enum_gj | Leapfrog -> enum_lf

let has_empty_atom ctx = Array.exists (fun t -> Trie.row_count t = 0) ctx.tries

let setup ?order ?budget ?counters db q =
  let order = match order with Some o -> o | None -> Query.attributes q in
  let c = match counters with Some c -> c | None -> fresh_counters () in
  (order, c, make_ctx ?budget ~order db q)

(* Every answer in the sequential (depth-first) order; [f] receives the
   assignment parallel to the order, reused between calls. *)
let iter ~engine ?order ?budget ?counters db q f =
  let _, c, ctx = setup ?order ?budget ?counters db q in
  if not (has_empty_atom ctx) then begin
    let ws = make_ws ctx in
    enum engine ctx ws c ~level:0 ~stop:ctx.nvars (fun () ->
        c.emitted <- c.emitted + 1;
        f ws.assignment)
  end

let count ~engine ?order ?budget ?counters db q =
  let n = ref 0 in
  iter ~engine ?order ?budget ?counters db q (fun _ -> incr n);
  !n

let answer ~engine ?order db q =
  let order = match order with Some o -> o | None -> Query.attributes q in
  let rows = ref [] in
  iter ~engine ~order db q (fun a -> rows := Array.copy a :: !rows);
  Relation.make order !rows

(* [count] in the order the executor's sequential sharded driver
   charges its work - not the textbook accounting.  First the level-0
   candidates, each expanded one level deeper when its smallest level-1
   range exceeds [Compile.split_threshold], then the resulting tasks
   grouped by [Shard.shard_of ~k:shards] of their first value (stable
   within a shard), run in that order.  Deep work is charged as it
   happens, as the driver merges its per-unit counters also when the
   budget fires among the deep tasks.  With a budget this yields the
   sharded driver's partial counters at [shards]; the checks that hold
   under any order (partial <= total, ticks spent = budget) are stated
   in test_compile separately. *)
let count_staged ~engine ?order ?budget ?counters ~shards db q =
  let split = Lb_relalg.Compile.split_threshold in
  let _, c, ctx = setup ?order ?budget ?counters db q in
  if ctx.nvars = 0 then count ~engine ?order ?budget ~counters:c db q
  else if has_empty_atom ctx then 0
  else begin
    let ws = make_ws ctx in
    let tasks = ref [] in
    let push plen =
      tasks :=
        (plen, Array.copy ws.assignment, Array.copy ws.stack.(plen)) :: !tasks
    in
    let heavy () =
      ctx.nvars >= 2
      && Array.for_all
           (fun i -> ws.stack.(1).((2 * i) + 1) - ws.stack.(1).(2 * i) > split)
           ctx.participants.(1)
    in
    enum engine ctx ws c ~level:0 ~stop:1 (fun () ->
        if heavy () then enum engine ctx ws c ~level:1 ~stop:2 (fun () -> push 2)
        else push 1);
    let shard (_, a, _) = Shard.shard_of ~k:shards a.(0) in
    let ordered =
      List.stable_sort (fun x y -> compare (shard x) (shard y)) (List.rev !tasks)
    in
    let emitted0 = c.emitted in
    List.iter
      (fun (plen, a, st) ->
        Array.blit a 0 ws.assignment 0 plen;
        Array.blit st 0 ws.stack.(plen) 0 (Array.length st);
        enum engine ctx ws c ~level:plen ~stop:ctx.nvars (fun () ->
            c.emitted <- c.emitted + 1))
      ordered;
    c.emitted - emitted0
  end

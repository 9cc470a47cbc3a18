(* The answer check.  Expected answers come from the benchmark's own
   set-semantics evaluator over its own mirror of the data: a
   backtracking join over hash-indexed binary relations, fed the atoms
   the generator built (it never parses query text).  It shares no code
   with the server's planner, engines, caches or canonicalisation.
   Writes are replayed on the mirror in stream order, so every read is
   checked against the state it was served from. *)

module Json = Lb_service.Json

(* What the client keeps of one reply.  Replies are interned by their
   text, so a hot stream of identical replies is parsed and held once. *)
type reply = {
  status : string;  (** "ok", or the failure: a status or transport error *)
  cached : bool;
  attributes : string array;
  count : int;  (** query: answer size; mutation: relation cardinality *)
  rows : int array array option;  (** returned rows, when not count_only *)
}

let transport_error msg =
  { status = "transport: " ^ msg; cached = false; attributes = [||]; count = -1; rows = None }

let summarize (j : Json.t) =
  let member k = Json.member k j in
  let status = match member "status" with Some (Json.String s) -> s | _ -> "missing status" in
  let cached = match member "cached" with Some (Json.Bool b) -> b | _ -> false in
  let attributes =
    match member "attributes" with
    | Some (Json.List l) -> Array.of_list (List.map (function Json.String s -> s | _ -> "?") l)
    | _ -> [||]
  in
  let count =
    match (member "count", member "rows") with
    | Some (Json.Int n), _ -> n
    | None, Some (Json.Int n) -> n
    | _ -> -1
  in
  let rows =
    match member "rows" with
    | Some (Json.List rs) ->
        let row = function
          | Json.List xs -> Array.of_list (List.map (function Json.Int v -> v | _ -> min_int) xs)
          | _ -> [||]
        in
        Some (Array.of_list (List.map row rs))
    | _ -> None
  in
  { status; cached; attributes; count; rows }

let interned : (string, reply) Hashtbl.t = Hashtbl.create 1024

let of_line line =
  match Hashtbl.find_opt interned line with
  | Some r -> r
  | None ->
      let r =
        match Json.parse line with
        | j -> summarize j
        | exception _ -> transport_error ("unparsable reply " ^ line)
      in
      Hashtbl.replace interned line r;
      r

(* --- the mirror --- *)

type rel = {
  set : (int * int, unit) Hashtbl.t;
  fwd : (int, int) Hashtbl.t;  (** a -> every b with (a, b); [find_all] *)
  bwd : (int, int) Hashtbl.t;  (** b -> every a *)
}

type mirror = {
  rels : (string, rel) Hashtbl.t;
  mutable version : int;
  memo : (string, int * int array array) Hashtbl.t;  (** text -> version, sorted rows *)
}

let add r a b =
  if not (Hashtbl.mem r.set (a, b)) then begin
    Hashtbl.replace r.set (a, b) ();
    Hashtbl.add r.fwd a b;
    Hashtbl.add r.bwd b a
  end

(* [Hashtbl.remove] drops the newest binding of a key; rebuild the key's
   bucket without [other]. *)
let remove_pair tbl k other =
  let keep = List.filter (fun x -> x <> other) (Hashtbl.find_all tbl k) in
  while Hashtbl.mem tbl k do
    Hashtbl.remove tbl k
  done;
  List.iter (Hashtbl.add tbl k) (List.rev keep)

let remove r a b =
  if Hashtbl.mem r.set (a, b) then begin
    Hashtbl.remove r.set (a, b);
    remove_pair r.fwd a b;
    remove_pair r.bwd b a
  end

let mirror relations =
  let rels = Hashtbl.create 16 in
  List.iter
    (fun (name, rows) ->
      let r =
        { set = Hashtbl.create 4096; fwd = Hashtbl.create 4096; bwd = Hashtbl.create 4096 }
      in
      List.iter (fun row -> add r row.(0) row.(1)) rows;
      Hashtbl.replace rels name r)
    relations;
  { rels; version = 0; memo = Hashtbl.create 64 }

let cardinality m name = Hashtbl.length (Hashtbl.find m.rels name).set

let apply m ~rel ~insert rows =
  let r = Hashtbl.find m.rels rel in
  List.iter (fun row -> (if insert then add else remove) r row.(0) row.(1)) rows;
  m.version <- m.version + 1

let compare_rows (a : int array) (b : int array) =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* Attributes in order of first appearance, as the server reports them. *)
let attributes (atoms : Gen.atom list) =
  List.fold_left
    (fun acc (a : Gen.atom) ->
      List.fold_left (fun acc v -> if List.mem v acc then acc else acc @ [ v ]) acc [ a.x; a.y ])
    [] atoms
  |> Array.of_list

(* Every satisfying assignment, sorted.  Atoms are joined in an order
   that keeps each next atom connected to a bound variable when one
   exists; a full conjunctive query's satisfying assignments are its
   answer set. *)
let evaluate m (atoms : Gen.atom list) =
  let attrs = attributes atoms in
  let idx v =
    let rec go i = if attrs.(i) = v then i else go (i + 1) in
    go 0
  in
  let atoms = List.map (fun (a : Gen.atom) -> (Hashtbl.find m.rels a.rel, idx a.x, idx a.y)) atoms in
  let rec order bound acc = function
    | [] -> List.rev acc
    | rest ->
        let linked (_, x, y) = List.mem x bound || List.mem y bound in
        let next = match List.find_opt linked rest with Some a -> a | None -> List.hd rest in
        let _, x, y = next in
        order (x :: y :: bound) (next :: acc) (List.filter (fun a -> a != next) rest)
  in
  let plan = Array.of_list (order [] [] atoms) in
  let asg = Array.make (Array.length attrs) (-1) in
  let out = ref [] in
  let rec go i =
    if i = Array.length plan then out := Array.copy asg :: !out
    else
      let r, x, y = plan.(i) in
      let bind slot v k =
        let old = asg.(slot) in
        if old = -1 || old = v then begin
          asg.(slot) <- v;
          k ();
          asg.(slot) <- old
        end
      in
      match (asg.(x), asg.(y)) with
      | -1, -1 ->
          Hashtbl.iter (fun (a, b) () -> bind x a (fun () -> bind y b (fun () -> go (i + 1)))) r.set
      | a, -1 -> List.iter (fun b -> bind y b (fun () -> go (i + 1))) (Hashtbl.find_all r.fwd a)
      | -1, b -> List.iter (fun a -> bind x a (fun () -> go (i + 1))) (Hashtbl.find_all r.bwd b)
      | a, b -> if Hashtbl.mem r.set (a, b) then go (i + 1)
  in
  go 0;
  let rows = Array.of_list !out in
  Array.sort compare_rows rows;
  (attrs, rows)

let expected m text atoms =
  match Hashtbl.find_opt m.memo text with
  | Some (v, rows) when v = m.version -> rows
  | _ ->
      let _, rows = evaluate m atoms in
      Hashtbl.replace m.memo text (m.version, rows);
      rows

(* The server's own cap on rows in one reply. *)
let max_rows = Lb_service.Server.default_config.Lb_service.Server.max_rows

(* [None] when the reply matches, else what differed.  [corrupt] adds a
   row to the expected answer: the self-test's proof that a wrong
   expectation is caught. *)
let check_read ?(corrupt = false) m op (r : reply) =
  match (op : Gen.op) with
  | Write _ -> Some "not a read"
  | Read { text; atoms; count_only; limit; _ } -> (
      if r.status <> "ok" then Some ("status " ^ r.status)
      else
        let rows = expected m text atoms in
        let rows = if corrupt then Array.append [| [| -1; -1 |] |] rows else rows in
        let count = Array.length rows in
        let shown = min count (match limit with Some l -> min l max_rows | None -> max_rows) in
        if r.attributes <> attributes atoms then Some "attributes differ"
        else if r.count <> count then Some (Printf.sprintf "count %d, oracle %d" r.count count)
        else
          match (count_only, r.rows) with
          | true, None -> None
          | true, Some _ -> Some "rows on a count-only reply"
          | false, None -> Some "rows missing"
          | false, Some got ->
              if got <> Array.sub rows 0 shown then
                Some (Printf.sprintf "rows differ (%d shown, %d expected)" (Array.length got) shown)
              else None)

let check_write m op (r : reply) =
  match (op : Gen.op) with
  | Read _ -> Some "not a write"
  | Write { rel; insert; rows; _ } ->
      apply m ~rel ~insert rows;
      if r.status <> "ok" then Some ("status " ^ r.status)
      else if r.count <> cardinality m rel then
        Some (Printf.sprintf "cardinality %d, oracle %d" r.count (cardinality m rel))
      else None

let check m ?corrupt op r =
  match (op : Gen.op) with Read _ -> check_read ?corrupt m op r | Write _ -> check_write m op r

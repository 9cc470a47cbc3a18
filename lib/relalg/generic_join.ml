(* Generic Join (Ngo-Porat-Re-Rudra), Theorem 3.3: a facade over the
   Compile executor.  Each entry point lowers the query against its
   variable order and runs the Generic Join loop nest; the counters are
   reported under this engine's names ([intersections] = enumerated
   leader keys). *)

type counters = { mutable intersections : int; mutable emitted : int }

let fresh_counters () = { intersections = 0; emitted = 0 }

include Compile.Facade (struct
  type nonrec counters = counters

  let engine = Compile.Generic

  let add c ~work ~emitted =
    c.intersections <- c.intersections + work;
    c.emitted <- c.emitted + emitted
end)

exception Found = Compile.Found

type subset = Compile.subset = { owned : int -> bool; lead : bool }

let all_shards = Compile.all_shards

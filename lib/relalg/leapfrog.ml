(* Leapfrog Triejoin (Veldhuizen), Theorem 3.3: a facade over the
   Compile executor.  Each entry point lowers the query against its
   variable order and runs the Leapfrog loop nest; the counters are
   reported under this engine's names ([seeks] = seeks of lagging
   iterators). *)

type counters = { mutable seeks : int; mutable emitted : int }

let fresh_counters () = { seeks = 0; emitted = 0 }

include Compile.Facade (struct
  type nonrec counters = counters

  let engine = Compile.Leapfrog

  let add c ~work ~emitted =
    c.seeks <- c.seeks + work;
    c.emitted <- c.emitted + emitted
end)

exception Found = Compile.Found

type subset = Compile.subset = { owned : int -> bool; lead : bool }

let all_shards = Compile.all_shards

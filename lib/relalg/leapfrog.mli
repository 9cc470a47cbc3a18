(** Leapfrog Triejoin (Veldhuizen): the second worst-case-optimal join
    of Theorem 3.3.  The per-variable intersection leapfrogs sorted key
    streams over columnar tries, seeking each iterator to the current
    maximum by galloping search from its position.

    A facade over {!Compile}, like {!Generic_join}: every entry point
    lowers the query with [~engine:Leapfrog] and runs the compiled loop
    nest on {!Compile}'s drivers.

    Resource governance mirrors {!Generic_join}: the budget is ticked
    once per agreed key and per seek (raising
    {!Lb_util.Budget.Budget_exhausted} when spent, on every domain of a
    parallel run); the metrics sink receives the per-call
    [leapfrog.seeks] / [leapfrog.emitted] deltas and one
    [leapfrog.trie_builds] tick per execution. *)

type counters = { mutable seeks : int; mutable emitted : int }

val fresh_counters : unit -> counters

(** Same contract as {!Generic_join.iter}. *)
val iter :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  (int array -> unit) ->
  unit

val answer :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  Relation.t

val count :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  int

(** [count] with budget exhaustion reified as [Exhausted]. *)
val count_bounded :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  int Lb_util.Budget.outcome

exception Found

val exists :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  bool

(** Distributed-participant slice; see {!Compile.subset}. *)
type subset = Compile.subset = { owned : int -> bool; lead : bool }

val all_shards : subset

(** Sharded driver ({!Compile.run_sharded}), with the level-0 leapfrog
    emulated over the merged per-shard key streams. *)
val run_sharded :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ?partition:(Query.atom -> col:int -> Relation.t array option) ->
  ?view:Shard.view ->
  ?subset:subset ->
  shards:int ->
  Database.t ->
  Query.t ->
  Relation.t

val count_sharded :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ?partition:(Query.atom -> col:int -> Relation.t array option) ->
  ?view:Shard.view ->
  ?subset:subset ->
  shards:int ->
  Database.t ->
  Query.t ->
  int

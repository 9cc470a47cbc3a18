(** Generic Join (Ngo-Porat-Re-Rudra): the worst-case-optimal join of
    Theorem 3.3.  Per variable, the candidate values are the
    intersection of every relevant atom's value set, enumerated from the
    smallest set - the step that caps total work at O(N^{rho*}).

    A facade over {!Compile}: every entry point lowers the query against
    its variable order ([?order], default: attributes in order of first
    appearance) with [~engine:Generic] and runs the compiled loop nest,
    so results and counters are those of {!Compile}'s drivers -
    sequential, Domain-parallel under [ctx]'s pool, or sharded.

    Resource governance: a budget is ticked once per enumerated
    leader key (the unit the O(N^{rho*}) accounting charges), raising
    {!Lb_util.Budget.Budget_exhausted} when spent - under a pool, every
    domain observes the shared budget, so exhaustion stops all of them
    within a tick.  The metrics sink receives the per-call
    [generic_join.intersections] / [generic_join.emitted] deltas (also
    when the run is cut short) and one [generic_join.trie_builds] tick
    per execution.  [?counters] accumulates the same deltas.

    Execution resources are passed as a single [?ctx]
    ({!Lb_util.Exec.t}); see {!Lb_util.Exec.make}. *)

type counters = { mutable intersections : int; mutable emitted : int }

val fresh_counters : unit -> counters

(** Iterate all answers; [f] receives the assignment parallel to the
    variable [order] (default: attributes in order of first appearance).
    The array is reused between calls; raise inside [f] to stop. *)
val iter :
  ?order:string array ->
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  (int array -> unit) ->
  unit

(** Materialize the answer (schema = the variable order).  With a pool,
    trie builds and the join itself run across the pool's domains. *)
val answer :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  Relation.t

(** Count the answers.  With a pool, runs the Domain-parallel driver;
    the count and the final counter totals are identical to a sequential
    run on the same inputs. *)
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

(** The Boolean join query: stop at the first answer. *)
val exists :
  ?order:string array ->
  ?ctx:Lb_util.Exec.t ->
  Database.t ->
  Query.t ->
  bool

(** {2 Sharded execution}

    {!Compile.run_sharded}'s driver: answers, counter totals and budget
    ticks equal the unsharded run's; see {!Compile.subset} for the
    distributed-participant slice. *)

type subset = Compile.subset = { owned : int -> bool; lead : bool }

val all_shards : subset

(** Materialize the answer through the sharded driver. *)
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

(** Count the answers through the sharded driver. *)
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

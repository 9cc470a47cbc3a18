(** The worst-case-optimal join executor (Theorem 3.3): one level-wise
    intersection skeleton with two intersection primitives, Generic
    Join and Leapfrog Triejoin, selected by the plan's {!engine}.
    {!Generic_join} and {!Leapfrog} are facades that lower their query
    and call the entry points here.

    A compiled plan ({!ir}) is the schema-level half of a
    worst-case-optimal join: for each variable of the global order, the
    flat list of (atom, trie depth) bindings participating at that
    level.  It depends only on the query text and the order - never on
    the data - so the query service keeps it in the plan LRU (charged
    by {!weight}) and reuses it across executions and batch windows.
    Per execution, the IR is resolved against freshly built tries and
    run as a monomorphic loop nest: direct column pointers,
    [Array.unsafe_get] on the hot path, no closures or option matches
    per column access.

    Contract: answers, work counters and budget-tick placement are
    bit-identical across drivers (sequential, Domain-parallel, sharded,
    and any cover of distributed {!subset}s).  After a mid-query budget
    exhaustion the sequential driver leaves the textbook partial
    counters; the Domain-parallel and sharded drivers merge each task's
    counters when the fan-out ends, also when the budget cut it short,
    so theirs hold the level-0 work plus every task's work charged
    before the exhaustion (the sequential sharded driver: the level-0
    pass, then the deep tasks in shard order).  Counters go to the
    engine's metric names ([generic_join.*] / [leapfrog.*]). *)

type engine = Generic | Leapfrog

(** ["generic_join"] / ["leapfrog"] - the planner's vocabulary. *)
val engine_name : engine -> string

(** Work counters: [work] counts enumerated leader keys under
    {!Generic} (reported as [Generic_join.counters.intersections]) and
    seeks under {!Leapfrog} (reported as [Leapfrog.counters.seeks]). *)
type counters = { mutable work : int; mutable emitted : int }

val fresh_counters : unit -> counters

(** The compiled plan: flat level tables.  Level [l] of the loop nest
    binds variable [order.(l)] through slots
    [lv_off.(l) .. lv_off.(l+1) - 1] of [lv_atom] (participating atom
    id, ascending) and [lv_depth] (that atom's trie depth for the
    level).  Treat as immutable. *)
type ir = private {
  engine : engine;
  order : string array;
  nvars : int;
  natoms : int;
  rels : string array;
  lv_off : int array;
  lv_atom : int array;
  lv_depth : int array;
}

(** [lower ~engine q] compiles [q] against the global variable order
    (default: attributes in first-appearance order).  Pure schema work - no tries are built.  Raises
    [Invalid_argument] if an attribute is missing from the order or a
    variable appears in no atom. *)
val lower : engine:engine -> ?order:string array -> Query.t -> ir

(** Cache charge of an IR: the number of ints in its flat tables. *)
val weight : ir -> int

(** Human-readable dump of the loop nest, one line per level. *)
val describe : ir -> string list

(** Count the answers.  [ctx]'s pool runs the Domain-parallel driver,
    its budget is ticked at the engine's charging points, and its
    metrics sink receives the usual per-call deltas. *)
val count :
  ?counters:counters -> ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t ->
  int

(** [count] with budget exhaustion reified as [Exhausted]. *)
val count_bounded :
  ?counters:counters -> ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t ->
  int Lb_util.Budget.outcome

(** Materialize the answer (schema = the IR's variable order).  With a
    pool, trie builds and the join itself run across its domains. *)
val answer : ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t -> Relation.t

(** Iterate all answers sequentially; [f] receives the assignment
    parallel to the IR's order.  The array is reused between calls;
    raise inside [f] to stop. *)
val iter :
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ir ->
  Database.t ->
  Query.t ->
  (int array -> unit) ->
  unit

(** Stops {!exists} at the first answer; the facades re-export it. *)
exception Found

(** The Boolean join query: stop at the first answer.  Honours [ctx]'s
    budget; reports no metrics. *)
val exists : ?ctx:Lb_util.Exec.t -> ir -> Database.t -> Query.t -> bool

(** Task generation of the Domain-parallel and sharded drivers: a
    first-variable candidate whose smallest level-1 participant range
    exceeds this many rows is expanded one level deeper, so one heavy
    value cannot serialize the run.  The order in which the drivers
    charge budget ticks depends on it. *)
val split_threshold : int

(** {2 Sharded execution}

    The sharded driver hash-partitions every atom containing the first
    variable of the order into [shards] co-partitioned pieces
    ({!Shard.view}) and runs one subproblem per shard, fanned out on
    [ctx]'s pool with a 2x-mean skew split.  The level-0 loop is
    emulated over the merged per-shard key streams, so answers, counter
    totals and budget ticks equal the unsharded run's.  [?partition]
    (see {!Shard.view}'s [?hook]) lets a catalog supply warm
    raw-relation partitions; [?view] supplies a prebuilt view outright
    (its [k] must equal [shards] and its attribute the first variable
    of the order). *)

(** Which slice of the sharded run this process executes.  [owned s]
    selects the shards whose deep-level work (and counters, emitted
    rows, heavy-split expansion) this participant performs; [lead]
    marks the one participant that accounts the shared level-0 stream
    emulation and the logical [*.trie_builds] tick.  Over a cover of
    participants - every shard owned exactly once, exactly one lead -
    the reported counters sum to the single-process sharded totals bit
    for bit.  The default, {!all_shards}, owns everything and leads:
    the single-process case.  Ignored when the variable order is empty
    (the unsharded fallback runs whole). *)
type subset = { owned : int -> bool; lead : bool }

val all_shards : subset

(** Materialize the answer through the sharded driver, one resolved
    machine per shard. *)
val run_sharded :
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ?partition:(Query.atom -> col:int -> Relation.t array option) ->
  ?view:Shard.view ->
  ?subset:subset ->
  shards:int ->
  ir ->
  Database.t ->
  Query.t ->
  Relation.t

(** Count the answers through the sharded driver. *)
val count_sharded :
  ?counters:counters ->
  ?ctx:Lb_util.Exec.t ->
  ?partition:(Query.atom -> col:int -> Relation.t array option) ->
  ?view:Shard.view ->
  ?subset:subset ->
  shards:int ->
  ir ->
  Database.t ->
  Query.t ->
  int

(** {2 Engine facades}

    {!Generic_join} and {!Leapfrog} are [Facade] applied to their
    engine: each entry point lowers the query against [?order]
    (default: attributes in order of first appearance) and runs the
    matching driver above, adding the run's [work] and [emitted] to the
    caller's [?counters] - also when a budget cuts the run short. *)

module type ENGINE = sig
  (** The facade's counter record. *)
  type counters

  val engine : engine

  (** Add one run's counters to the caller's record. *)
  val add : counters -> work:int -> emitted:int -> unit
end

module Facade (E : ENGINE) : sig
  val iter :
    ?order:string array ->
    ?counters:E.counters ->
    ?ctx:Lb_util.Exec.t ->
    Database.t ->
    Query.t ->
    (int array -> unit) ->
    unit

  val answer :
    ?order:string array -> ?ctx:Lb_util.Exec.t -> Database.t -> Query.t ->
    Relation.t

  val count :
    ?order:string array ->
    ?counters:E.counters ->
    ?ctx:Lb_util.Exec.t ->
    Database.t ->
    Query.t ->
    int

  val count_bounded :
    ?order:string array ->
    ?counters:E.counters ->
    ?ctx:Lb_util.Exec.t ->
    Database.t ->
    Query.t ->
    int Lb_util.Budget.outcome

  val exists :
    ?order:string array -> ?ctx:Lb_util.Exec.t -> Database.t -> Query.t ->
    bool

  val run_sharded :
    ?order:string array ->
    ?counters:E.counters ->
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
    ?counters:E.counters ->
    ?ctx:Lb_util.Exec.t ->
    ?partition:(Query.atom -> col:int -> Relation.t array option) ->
    ?view:Shard.view ->
    ?subset:subset ->
    shards:int ->
    Database.t ->
    Query.t ->
    int
end

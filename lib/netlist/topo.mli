(** Structural analyses on netlists: levelization, cones, reachability.

    These are the graph queries the locking and attack code shares: logic
    levels feed the synthetic benchmark generator's depth control, output
    cones implement the Encrypt-Flip-Flop FF-grouping algorithm [4]
    (Table I's last column), and transitive fanin cones let the removal
    attack excise located security structures. *)

(** [levels t] assigns each node a logic level: sources (inputs, constants,
    flip-flop outputs) are level 0, a gate is one more than its deepest
    fanin.  Dead nodes get level [-1]. *)
val levels : Netlist.t -> int array

(** [depth t] is the largest level of any node feeding a primary output or a
    flip-flop D pin — the combinational depth of the circuit. *)
val depth : Netlist.t -> int

(** [output_cone t id] is the set of primary-output names transitively
    reachable from node [id], crossing flip-flop boundaries (a FF's Q
    output is reachable from its D fanin).  This is the "fanout PO set" of
    [4]. *)
val output_cone : Netlist.t -> int -> string list

(** [comb_output_cone t id] restricts {!output_cone} to combinational
    reachability: propagation stops at flip-flop D pins. *)
val comb_output_cone : Netlist.t -> int -> string list

(** [fanin_cones t roots] is the union of the transitive combinational
    fanins of [roots], each root included, stopping at sources, in
    ascending id order.  One marking pass over the union: O(nodes). *)
val fanin_cones : Netlist.t -> int list -> int list

(** [fanin_cone t id] is [fanin_cones t [id]]. *)
val fanin_cone : Netlist.t -> int -> int list

(** [group_ffs_by_cone t] buckets flip-flop ids by their
    {!comb_output_cone} signature — the primary outputs each flip-flop's Q
    reaches combinationally, without crossing another flip-flop — largest
    bucket first: the FF grouping of [4].  Members keep {!Netlist.ffs}
    order.  One reverse pass over {!Netlist.comb_topo_array} with a
    per-node bitset of reached outputs: O(nodes × ⌈POs/63⌉).

    Memoized inside the netlist like {!Netlist.levels}: a second call at
    the same {!Netlist.generation} returns the same list, and any
    mutation invalidates it.  Every call emits a [topo.ff_groups] span
    whose [memo] arg is ["hit"] or ["miss"]; each miss increments the
    [topo.ff_groups_computed] counter. *)
val group_ffs_by_cone : Netlist.t -> int list list

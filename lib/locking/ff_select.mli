(** Flip-flop selection against scan-based attacks — the Encrypt-Flip-Flop
    heuristic of Karmakar et al. [4], producing Table I's last column.

    The algorithm groups flip-flops by the set of primary outputs their Q
    pins reach combinationally, stopping at flip-flop D pins
    ({!Topo.group_ffs_by_cone}, O(nodes × ⌈POs/63⌉)); encrypting
    flip-flops drawn from one group whose cone covers many outputs makes
    the locked state bits mutually indistinguishable to a scan-chain
    observer. *)

(** [groups net ~among] buckets the flip-flops in [among] by primary-output
    cone signature, largest bucket first. *)
val groups : Netlist.t -> among:int list -> int list list

(** [selected_count net ~among] is the size of the largest group — the
    "Ava. FF [4]" column of Table I. *)
val selected_count : Netlist.t -> among:int list -> int

(** [pick net ~among ~n ~seed] chooses [n] flip-flops for encryption,
    preferring the largest groups and drawing deterministically within a
    group.  @raise Invalid_argument when [n] exceeds [List.length among]. *)
val pick : Netlist.t -> among:int list -> n:int -> seed:int -> int list

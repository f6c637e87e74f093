(** The result of a combinational locking transform, and shared splicing
    helpers. *)

type t = {
  net : Netlist.t;
  scheme : string;
  key_inputs : string list;      (** key-input PI names, in insertion order *)
  correct_key : Key.assignment;
}

(** [key_pi_ids t] resolves the key inputs to node ids. *)
val key_pi_ids : t -> int list

(** [with_key_fixed t key] is a copy of the locked netlist with the key
    inputs replaced by constants — the "decrypted" netlist an attacker
    ships after recovering [key]. *)
val with_key_fixed : t -> Key.assignment -> Netlist.t

(** [splice_all_fanouts net ~target ~build] inserts the node returned by
    [build ()] between [target] and {i all} of its current consumers
    (fanin pins and primary outputs).  [build] must create a node that
    reads [target].  Returns the new node's id.  Reads
    {!Netlist.fanout_table}, which the previous splice's mutations
    invalidated: k calls cost k table builds.  It is [splicer net]
    applied once. *)
val splice_all_fanouts : Netlist.t -> target:int -> build:(unit -> int) -> int

(** [splicer net] is a {!splice_all_fanouts} for a sequence of splices on
    [net] that reads the fanout table once, when [splicer net] is
    applied, rather than once per splice.  It gives the same netlist as
    calling {!splice_all_fanouts} for each target in turn (a target may
    repeat: its consumers are then the nodes built for it) under one
    condition: the nodes each [build] creates, and any the caller adds
    between splices, read no node that existed before them other than
    the current target, and nothing else is rewired in between.  An
    XOR/XNOR key-gate, reading its target and a fresh key input, meets
    it ({!Xor_lock}); a MUX key-gate that also reads a decoy wire does
    not, since splicing one target would add a consumer to a decoy that
    may be a later target, so {!Mux_lock} stays on
    {!splice_all_fanouts}. *)
val splicer : Netlist.t -> target:int -> build:(unit -> int) -> int

(** [gate_wires net] lists nodes usable as key-gate insertion points:
    combinational gates and flip-flop outputs (not inputs, so locking
    stays inside the design). *)
val gate_wires : Netlist.t -> int list

(** [pick_distinct rng k xs] samples [k] distinct elements
    (@raise Invalid_argument if [k > List.length xs]). *)
val pick_distinct : Random.State.t -> int -> 'a list -> 'a list

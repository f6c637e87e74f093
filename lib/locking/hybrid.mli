(** Hybrid GK + XOR encryption (Sec. VI, Table II last column).

    "We insert XOR gates to the paths encrypted by GK to defend against the
    attack from BIST.  We randomly used one half of the key-inputs to
    control the XOR key-gates, and the other half is for GKs."  XOR
    key-gates land on wires inside the fanin cones of [n_gks] flip-flops
    picked on the original netlist, {i before} the GKs are placed (so the
    GK timing windows are computed on the final arrival times).

    Known deviation: the GKs are then placed by {!Insertion.lock} on the
    XOR-locked netlist, which picks its flip-flops afresh.  They are not
    pinned to the XOR-targeted ones, and on 5 of the 7 benchmarks the two
    sets differ (s38417 shares none of 8), so there the XORs do not sit on
    the GK-encrypted paths. *)

type t = {
  design : Insertion.design;      (** GK placements over the XOR-locked net *)
  xor_key_inputs : string list;
  all_key_inputs : string list;
  all_correct_key : Key.assignment;
}

(** [lock ?seed ?profile net ~clock_ps ~n_gks ~n_xors].  The combined key
    has [2*n_gks + n_xors] bits.
    @raise Invalid_argument when sites run out. *)
val lock :
  ?seed:int ->
  ?profile:Delay_synth.profile ->
  ?l_glitch_ps:int ->
  Netlist.t ->
  clock_ps:int ->
  n_gks:int ->
  n_xors:int ->
  t

(** Cell/area overhead vs the original (pre-XOR) baseline. *)
val overhead : t -> float * float

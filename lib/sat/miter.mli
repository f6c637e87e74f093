(** The two-copy miter shared by the SAT attack, AppSAT, key
    sensitization and equivalence checking.

    A miter holds two {!Tseitin} copies of a locked netlist over shared
    X (non-key) input variables, with independent key vectors K1 and K2,
    and asserts that some primary output differs.  A model is a
    distinguishing input pattern (DIP); constraining both copies to the
    oracle's answer at each DIP prunes the keys that disagree with it.

    Variable and clause creation order is part of the contract: the
    CDCL search, and so every conflict count and extracted key, depends
    on it.
    - {!create}: the X inputs in {!Netlist.inputs} order, then K1/K2
      interleaved per key in [key_inputs] order, then copy 1, copy 2, one
      diff variable per output and the OR clause.
    - {!constrain}: a K1 copy, then a K2 copy; {!Keys.model} adds the
      store's copies in observation order.  Each copy pins its X inputs
      before its outputs.
    - Callers such as {!Equiv} use {!encode} and {!differ} in their own
      order (shared inputs, copy [a], copy [b], pins, then {!differ}). *)

(** [encode solver net ~bind] Tseitin-encodes [net] into [solver] and
    returns the node-id → variable map.  [bind name] may supply an
    existing variable for the primary input called [name]; every other
    node gets a fresh variable.

    @raise Invalid_argument if [net] has flip-flops. *)
val encode : Solver.t -> Netlist.t -> bind:(string -> int option) -> int array

(** [differ solver pairs] adds [d <-> a xor b] for each variable pair
    [(a, b)] and the clause that at least one [d] holds. *)
val differ : Solver.t -> (int * int) list -> unit

(** [x_inputs net ~key_inputs] is the primary inputs of [net] not named
    in [key_inputs], as [(name, node id)] in {!Netlist.inputs} order. *)
val x_inputs : Netlist.t -> key_inputs:string list -> (string * int) list

(** [validate ~who net ~key_inputs] checks that [net] is combinational
    and that every key names a primary input.

    @raise Invalid_argument with a message prefixed by [who]. *)
val validate : who:string -> Netlist.t -> key_inputs:string list -> unit

type t

(** [create ~who net ~key_inputs] validates (see {!validate}) and builds
    the miter in a fresh solver. *)
val create : who:string -> Netlist.t -> key_inputs:string list -> t

val solver : t -> Solver.t

(** [dip m] is the X-input assignment of the last [Sat] model, in
    {!Netlist.inputs} order. *)
val dip : t -> (string * bool) list

(** [constrain m dip outs] adds a K1 copy and a K2 copy, each with its
    X inputs pinned to [dip] and its outputs to [outs]. *)
val constrain : t -> (string * bool) list -> (string * bool) list -> unit

(** A key-only constraint store: one key vector in its own solver, with
    one copy per observed [(dip, outs)] pair. *)
module Keys : sig
  type miter := t

  type t

  (** [create m] is an empty store over [m]'s netlist and keys. *)
  val create : miter -> t

  (** [constrain s dip outs] records an observation.  Its copy is
      encoded at the next {!model}. *)
  val constrain : t -> (string * bool) list -> (string * bool) list -> unit

  (** [model s] is a key consistent with every observation so far, in
      [key_inputs] order, or [None] when none exists (the oracle
      disagrees with the netlist under every key). *)
  val model : t -> (string * bool) list option
end

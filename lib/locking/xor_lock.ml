let lock_on ?(seed = 1) ?(name_prefix = "xk") net ~wires =
  let rng = Random.State.make [| seed; 0x584f |] in
  let net = Netlist.copy net in
  (* one fanout table for the whole lock: a key-gate reads only its
     target and its fresh key input *)
  let splice = Locked.splicer net in
  let keyed =
    List.mapi
      (fun i target ->
        let key_name = Printf.sprintf "%s%d" name_prefix i in
        let bit = Random.State.bool rng in
        let k = Netlist.add_input net key_name in
        (* XNOR passes with bit=1, XOR with bit=0. *)
        let fn = if bit then Cell.Xnor else Cell.Xor in
        let _g =
          splice ~target ~build:(fun () ->
              Netlist.add_gate net
                ~name:(Printf.sprintf "%s%d_gate" name_prefix i)
                fn [| target; k |])
        in
        (key_name, bit))
      wires
  in
  {
    Locked.net;
    scheme = "xor";
    key_inputs = List.map fst keyed;
    correct_key = keyed;
  }

let lock ?(seed = 1) net ~n_keys =
  let rng = Random.State.make [| seed; 0x584e |] in
  let candidates =
    List.filter
      (fun id -> Netlist.is_comb (Netlist.node net id))
      (Locked.gate_wires net)
  in
  let wires = Locked.pick_distinct rng n_keys candidates in
  lock_on ~seed net ~wires

(* Mutation leg for the equivalence checker.

     dune exec test/mutants.exe -- CIRCUIT OPTIMIZED.blif [COUNT]

   Plants COUNT (default 30) one-gate mutations in an optimized netlist
   of the suite circuit CIRCUIT: each swaps one gate's cell for another
   of the same arity and a different function.  Every mutant goes
   through [Atpg.Equiv.check] against the unoptimized circuit, as
   [powder_cli optimize --verify] runs it.  A mutant that random
   simulation shows to differ must come back [Different] with a
   counterexample that [Sim.Engine.eval_single] confirms; any
   counterexample must be confirmed.  Exits 1 on the first violation. *)

module Circuit = Netlist.Circuit

let lib = Gatelib.Library.lib2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("mutants: " ^ s); exit 1) fmt

let po_values c cex =
  Sim.Engine.eval_single c
    (List.map
       (fun pi ->
         match List.assoc_opt (Circuit.name c pi) cex with
         | Some v -> v
         | None -> false)
       (Circuit.pis c))
  |> List.sort compare

let differs_on_simulation a b =
  let words = 16 in
  let ea = Sim.Engine.create a ~words and eb = Sim.Engine.create b ~words in
  Sim.Engine.randomize ea (Sim.Rng.create 11L);
  List.iter
    (fun pi ->
      match Circuit.find_by_name b (Circuit.name a pi) with
      | Some pb -> Sim.Engine.set_value eb pb (Sim.Engine.value ea pi)
      | None -> fail "input %s missing from the mutant" (Circuit.name a pi))
    (Circuit.pis a);
  Sim.Engine.resim_all eb;
  not (Sim.Engine.equivalent_on_patterns ea eb)

let () =
  let circuit, optimized, count =
    match Array.to_list Sys.argv with
    | [ _; c; o ] -> (c, o, 30)
    | [ _; c; o; n ] -> (c, o, int_of_string n)
    | _ -> fail "usage: mutants.exe CIRCUIT OPTIMIZED.blif [COUNT]"
  in
  let reference =
    match Circuits.Suite.find circuit with
    | Some spec -> Circuits.Suite.mapped spec
    | None -> fail "unknown circuit %s" circuit
  in
  let opt =
    match Blif.Blif_io.circuit_of_file lib optimized with
    | Ok c -> c
    | Error e -> fail "%s: %s" optimized (Blif.Blif_io.error_to_string e)
  in
  let gates = Array.of_list (Circuit.live_gates opt) in
  let cells = Gatelib.Library.cells lib in
  let refuted = ref 0 and proved = ref 0 in
  for k = 0 to count - 1 do
    let mutant = Circuit.clone opt in
    let g = gates.(k * 7919 mod Array.length gates) in
    let cell = Circuit.cell_of mutant g in
    let others =
      List.filter
        (fun (c : Gatelib.Cell.t) ->
          Gatelib.Cell.arity c = Gatelib.Cell.arity cell
          && not (Logic.Tt.equal c.Gatelib.Cell.func cell.Gatelib.Cell.func))
        cells
    in
    match others with
    | [] -> ()
    | _ -> (
      Circuit.set_cell mutant g (List.nth others (k mod List.length others));
      let differs = differs_on_simulation reference mutant in
      match Atpg.Equiv.check ~exhaustive_limit:16 reference mutant with
      | Atpg.Equiv.Different cex ->
        if po_values reference cex = po_values mutant cex then
          fail "mutant %d: counterexample not confirmed by eval_single" k;
        incr refuted
      | Atpg.Equiv.Equivalent ->
        if differs then fail "mutant %d differs on simulation but was proved equivalent" k;
        incr proved
      | Atpg.Equiv.Unknown ->
        if differs then fail "mutant %d differs on simulation but the check was inconclusive" k)
  done;
  Printf.printf "mutants: %d planted, %d refuted with confirmed counterexamples, %d proved equivalent\n"
    count !refuted !proved

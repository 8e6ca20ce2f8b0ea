module Verilog = Blif.Verilog
module Blif = Blif.Blif_io
module Network = Aig.Network
module G = Aig.Graph
module Circuit = Netlist.Circuit
module Engine = Sim.Engine

let sample_blif =
  {|
# a small two-output network
.model demo
.inputs a b c
.outputs f g
.names a b t
11 1
.names t c f
1- 1
-1 1
.names c g
0 1
.end
|}

let test_parse_network () =
  match Blif.network_of_string sample_blif with
  | Error e -> Alcotest.fail (Blif.error_to_string e)
  | Ok net ->
    Alcotest.(check string) "model" "demo" net.Network.model;
    Alcotest.(check (list string)) "inputs" [ "a"; "b"; "c" ] net.Network.inputs;
    Alcotest.(check (list string)) "outputs" [ "f"; "g" ] net.Network.outputs;
    Alcotest.(check int) "nodes" 3 (List.length net.Network.nodes);
    (* f = (a&b) | c ; g = !c *)
    let g = Network.to_aig net in
    for m = 0 to 7 do
      let va = m land 1 <> 0 and vb = m land 2 <> 0 and vc = m land 4 <> 0 in
      let outs = G.eval g [| va; vb; vc |] in
      Alcotest.(check bool) "f" ((va && vb) || vc) (List.assoc "f" outs);
      Alcotest.(check bool) "g" (not vc) (List.assoc "g" outs)
    done

let test_offset_rows () =
  let text = ".model x\n.inputs a b\n.outputs f\n.names a b f\n10 0\n01 0\n.end\n" in
  match Blif.network_of_string text with
  | Error e -> Alcotest.fail (Blif.error_to_string e)
  | Ok net ->
    (* f is the complement of (a xor b) *)
    let g = Network.to_aig net in
    for m = 0 to 3 do
      let va = m land 1 <> 0 and vb = m land 2 <> 0 in
      Alcotest.(check bool) "xnor" (va = vb) (List.assoc "f" (G.eval g [| va; vb |]))
    done

let test_network_roundtrip () =
  match Blif.network_of_string sample_blif with
  | Error e -> Alcotest.fail (Blif.error_to_string e)
  | Ok net ->
    let text = Blif.network_to_string net in
    (match Blif.network_of_string text with
    | Error e -> Alcotest.fail ("reparse: " ^ Blif.error_to_string e)
    | Ok net2 ->
      let g1 = Network.to_aig net and g2 = Network.to_aig net2 in
      for m = 0 to 7 do
        let v = [| m land 1 <> 0; m land 2 <> 0; m land 4 <> 0 |] in
        Alcotest.(check bool) "same f"
          (List.assoc "f" (G.eval g1 v))
          (List.assoc "f" (G.eval g2 v))
      done)

let test_parse_errors () =
  let cases =
    [
      (".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n.baddir\n.end\n", "directive");
      (".model x\n.inputs a\n.outputs zz\n.end\n", "undefined output");
      (".model x\n.inputs a\n.outputs f\n.names a f\n111 1\n.end\n", "row width");
      (".model x\n.model y\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n",
       "duplicate .model");
    ]
  in
  List.iter
    (fun (text, what) ->
      match Blif.network_of_string text with
      | Ok _ -> Alcotest.fail ("expected failure: " ^ what)
      | Error _ -> ())
    cases

let test_parse_error_lines () =
  (* the typed error points at the physical line of the offense, even
     when the logical line started earlier via a [\] continuation *)
  (match Blif.network_of_string ".model x\n.inputs a\n.outputs f\n.names a f\n1 1\n.baddir\n.end\n" with
  | Error e -> Alcotest.(check int) "directive line" 6 e.Blif.line
  | Ok _ -> Alcotest.fail "expected failure");
  (match Blif.network_of_string ".model x\n.inputs \\\na\n.outputs f\n.names a f\n111 1\n.end\n" with
  | Error e ->
    Alcotest.(check int) "row after continuation" 6 e.Blif.line;
    Alcotest.(check bool) "message names the node" true
      (String.length e.Blif.message > 0)
  | Ok _ -> Alcotest.fail "expected failure");
  (* a .names body error is reported at the line the node started *)
  match Blif.network_of_string ".model x\n.inputs a b\n.outputs f\n.names a b f\n11 1\n00 0\n.end\n" with
  | Error e -> Alcotest.(check int) "mixed rows at .names line" 4 e.Blif.line
  | Ok _ -> Alcotest.fail "expected failure"

let test_truncated_gate_rejected () =
  List.iter
    (fun (text, what) ->
      match Blif.circuit_of_string Build.lib text with
      | Ok _ -> Alcotest.fail ("expected failure: " ^ what)
      | Error e ->
        Alcotest.(check int) ("line of " ^ what) 4 e.Blif.line)
    [
      (".model m\n.inputs a\n.outputs f\n.gate\n.end\n", "bare .gate");
      (".model m\n.inputs a\n.outputs f\n.gate inv1\n.end\n", "gate without pins");
      (".model m\n.inputs a\n.outputs f\n.gate inv1 a=a\n.end\n",
       "gate without output");
      (".model m\n.inputs a\n.outputs f\n.gate inv1 a O=f\n.end\n",
       "connection without =");
      (".model m\n.inputs a\n.outputs f\n.gate inv1 q=a O=f\n.end\n",
       "unknown pin");
      (".model m\n.inputs a b\n.outputs f\n.gate and2 a=a O=f\n.end\n",
       "missing pin");
    ]

let test_duplicate_model_rejected_mapped () =
  let text = ".model m\n.model m2\n.inputs a\n.outputs f\n.gate inv1 a=a O=f\n.end\n" in
  match Blif.circuit_of_string Build.lib text with
  | Ok _ -> Alcotest.fail "expected duplicate .model error"
  | Error e -> Alcotest.(check int) "line" 2 e.Blif.line

let test_circuit_roundtrip () =
  let circ, _, _, _, _, _, _ = Build.fig2_a () in
  let text = Blif.circuit_to_string circ in
  match Blif.circuit_of_string Build.lib text with
  | Error e -> Alcotest.fail (Blif.error_to_string e)
  | Ok circ2 ->
    (match Circuit.validate circ2 with Ok () -> () | Error e -> Alcotest.fail e);
    Alcotest.(check int) "gates" (Circuit.gate_count circ) (Circuit.gate_count circ2);
    for m = 0 to 7 do
      let v = [ m land 1 <> 0; m land 2 <> 0; m land 4 <> 0 ] in
      let o1 = Engine.eval_single circ v and o2 = Engine.eval_single circ2 v in
      List.iter
        (fun (name, value) ->
          Alcotest.(check bool) name value (List.assoc name o2))
        o1
    done

let test_circuit_roundtrip_mapped_suite () =
  (* a mapped benchmark survives the BLIF roundtrip bit-exactly *)
  match Circuits.Suite.find "rd84" with
  | None -> Alcotest.fail "rd84 missing"
  | Some spec ->
    let circ = Circuits.Suite.mapped spec in
    let text = Blif.circuit_to_string circ in
    (match Blif.circuit_of_string Gatelib.Library.lib2 text with
    | Error e -> Alcotest.fail (Blif.error_to_string e)
    | Ok circ2 ->
      Alcotest.(check bool) "equivalent" true
        (Atpg.Equiv.check circ circ2 = Atpg.Equiv.Equivalent))

let test_unknown_cell_rejected () =
  let text = ".model m\n.inputs a\n.outputs f\n.gate nosuchcell a=a O=f\n.end\n" in
  match Blif.circuit_of_string Build.lib text with
  | Ok _ -> Alcotest.fail "expected unknown cell error"
  | Error e ->
    Alcotest.(check int) "error line" 4 e.Blif.line;
    Alcotest.(check bool) "mentions cell" true
      (String.length e.Blif.message > 0)

(* Hostile inputs: each file of test/hostile/ (and a path that does not
   exist) must come back from the file reader as a typed error with the
   expected line, never as an exception.  ci.sh feeds the same files to
   powder_cli, which must exit 123 on each. *)
let hostile_corpus =
  [
    ("missing.blif", 0);
    ("unknown_cell.blif", 4);
    ("garbage_line.blif", 4);
    ("duplicate_net.blif", 4);
    ("truncated_gate.blif", 4);
    ("duplicate_pin.blif", 4);
    ("duplicate_output.blif", 3);
    ("dangling_po.blif", 0);
  ]

let test_hostile_corpus () =
  (* dune runtest runs in the test directory, dune exec in the root *)
  let dir = if Sys.file_exists "hostile" then "hostile" else "test/hostile" in
  Alcotest.(check (list string)) "every corpus file is listed"
    (List.sort compare (Array.to_list (Sys.readdir dir)))
    (List.sort compare
       (List.filter (fun f -> f <> "missing.blif") (List.map fst hostile_corpus)));
  List.iter
    (fun (name, line) ->
      match Blif.circuit_of_file Gatelib.Library.lib2 (Filename.concat dir name) with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error e -> Alcotest.(check int) (name ^ ": error line") line e.Blif.line
      | exception ex -> Alcotest.failf "%s: raised %s" name (Printexc.to_string ex))
    hostile_corpus

let blif_tests =
  [
        Alcotest.test_case "parse network" `Quick test_parse_network;
        Alcotest.test_case "offset rows" `Quick test_offset_rows;
        Alcotest.test_case "network roundtrip" `Quick test_network_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "circuit roundtrip" `Quick test_circuit_roundtrip;
        Alcotest.test_case "mapped suite roundtrip" `Quick test_circuit_roundtrip_mapped_suite;
        Alcotest.test_case "unknown cell" `Quick test_unknown_cell_rejected;
        Alcotest.test_case "parse error lines" `Quick test_parse_error_lines;
        Alcotest.test_case "truncated .gate" `Quick test_truncated_gate_rejected;
        Alcotest.test_case "duplicate .model (mapped)" `Quick
          test_duplicate_model_rejected_mapped;
        Alcotest.test_case "hostile corpus" `Quick test_hostile_corpus;
  ]

(* ------------------------------------------------------------------ *)
(* Verilog writer                                                      *)
(* ------------------------------------------------------------------ *)

let test_verilog_writer () =
  let circ, _, _, _, _, _, _ = Build.fig2_a () in
  let text = Verilog.circuit_to_string ~module_name:"fig2" circ in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("contains " ^ fragment) true
        (let re = Str.regexp_string fragment in
         try ignore (Str.search_forward re text 0); true with Not_found -> false))
    [ "module fig2"; "input a;"; "output out_f;"; "and2 "; "xor2 ";
      "endmodule" ]

let test_verilog_sanitizes () =
  let lib = Build.lib in
  let c = Circuit.create lib in
  let a = Circuit.add_pi c ~name:"weird[3].x" in
  let g = Circuit.add_cell c (Gatelib.Library.inverter lib) [| a |] in
  ignore (Circuit.add_po c ~name:"1bad" g);
  let text = Verilog.circuit_to_string c in
  Alcotest.(check bool) "no brackets" true
    (not (String.contains text '['));
  Alcotest.(check bool) "port renamed" true
    (let re = Str.regexp_string "weird_3__x" in
     try ignore (Str.search_forward re text 0); true with Not_found -> false)

let verilog_tests =
  [
    Alcotest.test_case "verilog writer" `Quick test_verilog_writer;
    Alcotest.test_case "verilog sanitize" `Quick test_verilog_sanitizes;
  ]

(* Satellite: repro bundles embed circuits as BLIF, so fuzzed netlists
   must survive emit -> parse -> emit with byte-identical text — any
   drift (ordering, constants, naming) would break exact replay. *)
let test_fuzzed_roundtrip_byte_stable () =
  for i = 0 to 9 do
    let seed = Int64.of_int (400 + i) in
    let c = Fuzz.Gen.generate (Fuzz.Gen.spec_of_seed seed) in
    let s1 = Blif.circuit_to_string c in
    match Blif.circuit_of_string Build.lib s1 with
    | Error e ->
      Alcotest.failf "seed %Ld: reparse: %s" seed (Blif.error_to_string e)
    | Ok c2 ->
      Alcotest.(check string)
        (Printf.sprintf "seed %Ld: byte-stable" seed)
        s1
        (Blif.circuit_to_string c2)
  done

let fuzz_roundtrip_tests =
  [
    Alcotest.test_case "fuzzed emit/parse/emit byte-stable" `Quick
      test_fuzzed_roundtrip_byte_stable;
  ]

let suite = [ ("blif", blif_tests @ verilog_tests @ fuzz_roundtrip_tests) ]

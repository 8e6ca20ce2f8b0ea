module Tt = Logic.Tt
module Cell = Gatelib.Cell
module Library = Gatelib.Library

let test_lib2_sanity () =
  let lib = Library.lib2 in
  let inv = Library.inverter lib in
  Alcotest.(check string) "inverter" "inv1" inv.Cell.name;
  Alcotest.(check bool) "has nand2" true (Library.mem lib "nand2");
  Alcotest.(check bool) "has xor2" true (Library.mem lib "xor2");
  let xor2 = Library.find lib "xor2" in
  Alcotest.(check (float 1e-9)) "xor pin cap" 2.0 xor2.Cell.pin_caps.(0);
  let nand2 = Library.find lib "nand2" in
  Alcotest.(check (float 1e-9)) "nand pin cap" 1.0 nand2.Cell.pin_caps.(0)

let test_cell_eval () =
  let lib = Library.lib2 in
  let aoi21 = Library.find lib "aoi21" in
  (* aoi21 = !(ab + c) *)
  Alcotest.(check bool) "110 -> 0" false (Cell.eval aoi21 [| true; true; false |]);
  Alcotest.(check bool) "001 -> 0" false (Cell.eval aoi21 [| false; false; true |]);
  Alcotest.(check bool) "100 -> 1" true (Cell.eval aoi21 [| true; false; false |])

let test_two_input_cells () =
  let cells = Library.two_input_cells Library.lib2 in
  let names = List.map (fun (c : Cell.t) -> c.Cell.name) cells in
  Alcotest.(check bool) "xor2 present" true (List.mem "xor2" names);
  Alcotest.(check bool) "nand2 present" true (List.mem "nand2" names);
  Alcotest.(check bool) "inv absent" false (List.mem "inv1" names)

let test_match_tt_direct () =
  let lib = Library.lib2 in
  let f = Tt.and_ (Tt.var 2 0) (Tt.var 2 1) in
  match Library.match_tt_best lib f with
  | Some (c, _) -> Alcotest.(check string) "and2" "and2" c.Cell.name
  | None -> Alcotest.fail "expected a match"

let test_match_tt_permuted () =
  let lib = Library.lib2 in
  (* aoi21 with pins permuted: !(c + a*b) where our signal order is
     (c, a, b): f(s0,s1,s2) = !(s1*s2 + s0) *)
  let f =
    Tt.not_ (Tt.or_ (Tt.and_ (Tt.var 3 1) (Tt.var 3 2)) (Tt.var 3 0))
  in
  match Library.match_tt_best lib f with
  | None -> Alcotest.fail "expected a match"
  | Some (c, perm) ->
    Alcotest.(check string) "cell" "aoi21" c.Cell.name;
    (* verify the permutation really realizes f: signal i feeds pin
       perm.(i); evaluate both on all minterms *)
    for m = 0 to 7 do
      let sig_val i = m land (1 lsl i) <> 0 in
      let pins = Array.make 3 false in
      Array.iteri (fun i p -> pins.(p) <- sig_val i) perm;
      Alcotest.(check bool)
        (Printf.sprintf "minterm %d" m)
        (Tt.eval_int f m) (Cell.eval c pins)
    done

let test_match_tt_all_sorted () =
  let lib = Library.lib2 in
  let f = Tt.not_ (Tt.and_ (Tt.var 2 0) (Tt.var 2 1)) in
  match Library.match_tt lib f with
  | [] -> Alcotest.fail "expected matches"
  | (first, _) :: _ ->
    Alcotest.(check string) "cheapest first" "nand2" first.Cell.name

let test_no_match () =
  let lib = Library.minimal in
  (* 3-input majority is not in the minimal library *)
  let a = Tt.var 3 0 and b = Tt.var 3 1 and c = Tt.var 3 2 in
  let maj = Tt.or_ (Tt.or_ (Tt.and_ a b) (Tt.and_ b c)) (Tt.and_ a c) in
  Alcotest.(check bool) "no match" true (Library.match_tt_best lib maj = None)

let test_duplicate_name_rejected () =
  let inv = Library.inverter Library.minimal in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Library.of_cells: duplicate cell inv")
    (fun () -> ignore (Library.of_cells [ inv; inv ]))

let prop_match_is_sound =
  (* any matched (cell, perm) must realize the function *)
  let gen =
    QCheck.map (fun w -> Tt.create 2 (Int64.of_int w)) QCheck.(int_bound 15)
  in
  QCheck.Test.make ~name:"match_tt soundness (2 vars)" ~count:64 gen (fun f ->
      List.for_all
        (fun ((c : Cell.t), perm) ->
          let ok = ref true in
          for m = 0 to 3 do
            let pins = Array.make 2 false in
            Array.iteri (fun i p -> pins.(p) <- m land (1 lsl i) <> 0) perm;
            if Cell.eval c pins <> Tt.eval_int f m then ok := false
          done;
          !ok)
        (Library.match_tt Library.lib2 f))

let suite_base =
  [
        Alcotest.test_case "lib2 sanity" `Quick test_lib2_sanity;
        Alcotest.test_case "cell eval" `Quick test_cell_eval;
        Alcotest.test_case "two-input cells" `Quick test_two_input_cells;
        Alcotest.test_case "match direct" `Quick test_match_tt_direct;
        Alcotest.test_case "match permuted" `Quick test_match_tt_permuted;
        Alcotest.test_case "match sorted" `Quick test_match_tt_all_sorted;
        Alcotest.test_case "no match" `Quick test_no_match;
        Alcotest.test_case "duplicate rejected" `Quick test_duplicate_name_rejected;
        QCheck_alcotest.to_alcotest prop_match_is_sound;
  ]

let suite = [ ("gatelib", suite_base) ]

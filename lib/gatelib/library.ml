module Tt = Logic.Tt

type t = { ordered : Cell.t list; by_name : (string, Cell.t) Hashtbl.t }

let of_cells cells =
  if cells = [] then invalid_arg "Library.of_cells: empty";
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun (c : Cell.t) ->
      if Hashtbl.mem by_name c.Cell.name then
        invalid_arg ("Library.of_cells: duplicate cell " ^ c.Cell.name);
      Hashtbl.add by_name c.Cell.name c)
    cells;
  { ordered = cells; by_name }

let cells t = t.ordered
let find t name = match Hashtbl.find_opt t.by_name name with
  | Some c -> c
  | None -> raise Not_found
let find_opt t name = Hashtbl.find_opt t.by_name name
let mem t name = Hashtbl.mem t.by_name name

let cheapest pred t =
  List.filter pred t.ordered
  |> List.sort (fun (a : Cell.t) b -> Float.compare a.area b.area)
  |> function [] -> None | c :: _ -> Some c

let inverter t =
  match cheapest (fun c -> Tt.equal c.Cell.func (Tt.not_ (Tt.var 1 0))) t with
  | Some c -> c
  | None -> raise Not_found

let two_input_cells t =
  List.filter
    (fun c -> Cell.arity c = 2 && List.length (Tt.support c.Cell.func) = 2)
    t.ordered

(* All permutations of [0..n-1]; n <= 6 in practice so this is small. *)
let permutations n =
  let rec perms = function
    | [] -> [ [] ]
    | l ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (perms (List.filter (( <> ) x) l)))
        l
  in
  List.map Array.of_list (perms (List.init n (fun i -> i)))

let match_tt t f =
  let n = Tt.num_vars f in
  let perms = permutations n in
  let matches =
    List.concat_map
      (fun (c : Cell.t) ->
        if Cell.arity c <> n then []
        else
          List.filter_map
            (fun perm ->
              (* pin perm.(i) of the cell sees input i: cell func with its
                 variable perm.(i) renamed to i must equal f.  [Tt.permute]
                 renames var [j] to [inv.(j)]. *)
              let inv = Array.make n 0 in
              Array.iteri (fun i p -> inv.(p) <- i) perm;
              if Tt.equal (Tt.permute c.Cell.func inv) f then Some (c, perm)
              else None)
            perms)
      t.ordered
  in
  List.sort (fun ((a : Cell.t), _) (b, _) -> Float.compare a.area b.area) matches

let match_tt_best t f = match match_tt t f with [] -> None | m :: _ -> Some m

let default_po_load = 1.0

(* ------------------------------------------------------------------ *)
(* Built-in libraries.                                                 *)
(* ------------------------------------------------------------------ *)

let v n i = Tt.var n i
let ( &: ) = Tt.and_
let ( |: ) = Tt.or_
let ( ^: ) = Tt.xor
let nott = Tt.not_

let uniform_pins n c = Array.make n c

let simple ~name ~func ~area ~pin_cap ~tau ~drive_res =
  Cell.make ~name ~func ~area
    ~pin_caps:(uniform_pins (Tt.num_vars func) pin_cap)
    ~tau ~drive_res ()

let and_n n = Array.fold_left ( &: ) (Tt.const_true n) (Array.init n (v n))
let or_n n = Array.fold_left ( |: ) (Tt.const_false n) (Array.init n (v n))

let lib2_cells =
  [
    simple ~name:"inv1" ~func:(nott (v 1 0)) ~area:928. ~pin_cap:1.0 ~tau:0.4
      ~drive_res:0.16;
    simple ~name:"buf1" ~func:(v 1 0) ~area:1392. ~pin_cap:1.0 ~tau:0.7
      ~drive_res:0.12;
    simple ~name:"nand2" ~func:(nott (and_n 2)) ~area:1392. ~pin_cap:1.0
      ~tau:0.6 ~drive_res:0.18;
    simple ~name:"nand3" ~func:(nott (and_n 3)) ~area:1856. ~pin_cap:1.1
      ~tau:0.8 ~drive_res:0.21;
    simple ~name:"nand4" ~func:(nott (and_n 4)) ~area:2320. ~pin_cap:1.2
      ~tau:1.0 ~drive_res:0.24;
    simple ~name:"nor2" ~func:(nott (or_n 2)) ~area:1392. ~pin_cap:1.0 ~tau:0.7
      ~drive_res:0.20;
    simple ~name:"nor3" ~func:(nott (or_n 3)) ~area:1856. ~pin_cap:1.1 ~tau:0.9
      ~drive_res:0.24;
    simple ~name:"nor4" ~func:(nott (or_n 4)) ~area:2320. ~pin_cap:1.2 ~tau:1.2
      ~drive_res:0.28;
    simple ~name:"and2" ~func:(and_n 2) ~area:1856. ~pin_cap:1.0 ~tau:1.0
      ~drive_res:0.15;
    simple ~name:"and3" ~func:(and_n 3) ~area:2320. ~pin_cap:1.1 ~tau:1.2
      ~drive_res:0.17;
    simple ~name:"and4" ~func:(and_n 4) ~area:2784. ~pin_cap:1.2 ~tau:1.4
      ~drive_res:0.19;
    simple ~name:"or2" ~func:(or_n 2) ~area:1856. ~pin_cap:1.0 ~tau:1.1
      ~drive_res:0.16;
    simple ~name:"or3" ~func:(or_n 3) ~area:2320. ~pin_cap:1.1 ~tau:1.3
      ~drive_res:0.18;
    simple ~name:"or4" ~func:(or_n 4) ~area:2784. ~pin_cap:1.2 ~tau:1.5
      ~drive_res:0.20;
    simple ~name:"xor2" ~func:(v 2 0 ^: v 2 1) ~area:2784. ~pin_cap:2.0
      ~tau:1.4 ~drive_res:0.22;
    simple ~name:"xnor2" ~func:(nott (v 2 0 ^: v 2 1)) ~area:2784. ~pin_cap:2.0
      ~tau:1.4 ~drive_res:0.22;
    (* aoi21: !(ab + c) with pins (a,b,c) *)
    simple ~name:"aoi21"
      ~func:(nott ((v 3 0 &: v 3 1) |: v 3 2))
      ~area:1856. ~pin_cap:1.1 ~tau:0.9 ~drive_res:0.22;
    simple ~name:"aoi22"
      ~func:(nott ((v 4 0 &: v 4 1) |: (v 4 2 &: v 4 3)))
      ~area:2320. ~pin_cap:1.2 ~tau:1.1 ~drive_res:0.25;
    simple ~name:"oai21"
      ~func:(nott ((v 3 0 |: v 3 1) &: v 3 2))
      ~area:1856. ~pin_cap:1.1 ~tau:0.9 ~drive_res:0.22;
    simple ~name:"oai22"
      ~func:(nott ((v 4 0 |: v 4 1) &: (v 4 2 |: v 4 3)))
      ~area:2320. ~pin_cap:1.2 ~tau:1.1 ~drive_res:0.25;
    (* mux2: s ? b : a  with pins (a, b, s) *)
    simple ~name:"mux2"
      ~func:((nott (v 3 2) &: v 3 0) |: (v 3 2 &: v 3 1))
      ~area:3248. ~pin_cap:1.3 ~tau:1.3 ~drive_res:0.20;
    (* andnot2: a & !b — gives matching coverage for mixed-phase cuts *)
    simple ~name:"andnot2"
      ~func:(v 2 0 &: nott (v 2 1))
      ~area:2088. ~pin_cap:1.0 ~tau:1.0 ~drive_res:0.17;
    simple ~name:"ornot2"
      ~func:(v 2 0 |: nott (v 2 1))
      ~area:2088. ~pin_cap:1.0 ~tau:1.1 ~drive_res:0.18;
  ]

let lib2 = of_cells lib2_cells

(* Strength variants for the gate-resizing baseline: a 2x cell trades
   larger area and input capacitance for half the drive resistance and
   a slightly smaller intrinsic delay; a 0.5x cell the opposite. *)
let strength_variant suffix ~area_k ~cap_k ~tau_k ~res_k (c : Cell.t) =
  Cell.make
    ~name:(c.Cell.name ^ suffix)
    ~func:c.Cell.func
    ~area:(c.Cell.area *. area_k)
    ~pin_caps:(Array.map (fun p -> p *. cap_k) c.Cell.pin_caps)
    ~out_cap:(c.Cell.out_cap *. cap_k)
    ~tau:(c.Cell.tau *. tau_k)
    ~drive_res:(c.Cell.drive_res *. res_k)
    ()

let lib2_sized =
  let doubled =
    List.map
      (strength_variant "_2x" ~area_k:1.6 ~cap_k:1.8 ~tau_k:0.9 ~res_k:0.5)
      lib2_cells
  in
  let halved =
    List.map
      (strength_variant "_h" ~area_k:0.7 ~cap_k:0.6 ~tau_k:1.1 ~res_k:1.9)
      lib2_cells
  in
  of_cells (lib2_cells @ doubled @ halved)

let minimal =
  of_cells
    [
      simple ~name:"inv" ~func:(nott (v 1 0)) ~area:1. ~pin_cap:1.0 ~tau:1.0
        ~drive_res:0.1;
      simple ~name:"nand2" ~func:(nott (and_n 2)) ~area:2. ~pin_cap:1.0
        ~tau:1.0 ~drive_res:0.1;
      simple ~name:"and2" ~func:(and_n 2) ~area:3. ~pin_cap:1.0 ~tau:1.0
        ~drive_res:0.1;
      simple ~name:"or2" ~func:(or_n 2) ~area:3. ~pin_cap:1.0 ~tau:1.0
        ~drive_res:0.1;
      simple ~name:"xor2" ~func:(v 2 0 ^: v 2 1) ~area:4. ~pin_cap:2.0 ~tau:1.0
        ~drive_res:0.1;
    ]

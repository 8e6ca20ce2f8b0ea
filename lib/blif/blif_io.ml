module Network = Aig.Network
module Sop = Logic.Sop
module Cube = Logic.Cube
module Circuit = Netlist.Circuit
module Library = Gatelib.Library
module Cell = Gatelib.Cell

let pin_name i =
  if i < 26 then String.make 1 (Char.chr (Char.code 'a' + i))
  else Printf.sprintf "p%d" i

type parse_error = { line : int; context : string; message : string }

let error_to_string e =
  if e.line = 0 then
    if e.context = "" then e.message
    else Printf.sprintf "%s (in %S)" e.message e.context
  else if e.context = "" then Printf.sprintf "line %d: %s" e.line e.message
  else Printf.sprintf "line %d: %s (in %S)" e.line e.message e.context

let clip s = if String.length s <= 60 then s else String.sub s 0 57 ^ "..."

(* ------------------------------------------------------------------ *)
(* Tokenizing: strip comments, join continuations, split lines.        *)
(* ------------------------------------------------------------------ *)

(* Each logical line carries the 1-based physical line number where it
   started, so parse errors point at the source even across [\]
   continuations. *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let strip_comment line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let rec join acc pending pending_start no = function
    | [] -> List.rev (if pending = "" then acc else (pending_start, pending) :: acc)
    | line :: rest ->
      let line = strip_comment line in
      let line = String.trim line in
      if line = "" then join acc pending pending_start (no + 1) rest
      else begin
        let start = if pending = "" then no else pending_start in
        if String.length line > 0 && line.[String.length line - 1] = '\\' then
          join acc
            (pending ^ String.sub line 0 (String.length line - 1) ^ " ")
            start (no + 1) rest
        else join ((start, pending ^ line) :: acc) "" 0 (no + 1) rest
      end
  in
  join [] "" 0 1 raw

let words line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun w -> w <> "")

(* ------------------------------------------------------------------ *)
(* Network reading.                                                    *)
(* ------------------------------------------------------------------ *)

type parse_state = {
  mutable model : string option;
  mutable inputs : string list;
  mutable outputs : string list;
  mutable nodes : Network.node list;
  mutable current : (string * string list * (string * char) list * int) option;
      (* output name, fanins, rows (pattern, output char), start line *)
}

let finish_node st =
  match st.current with
  | None -> Ok ()
  | Some (name, fanins, rows_rev, start_line) ->
    st.current <- None;
    let n = List.length fanins in
    let rows = List.rev rows_rev in
    let on_rows = List.filter (fun (_, o) -> o = '1') rows in
    let off_rows = List.filter (fun (_, o) -> o = '0') rows in
    if on_rows <> [] && off_rows <> [] then
      Error
        {
          line = start_line;
          context = name;
          message = "node mixes on-set and off-set rows";
        }
    else begin
      let to_cubes rows = List.map (fun (p, _) -> Cube.of_string p) rows in
      let sop =
        if off_rows <> [] then
          Sop.complement_naive (Sop.create n (to_cubes off_rows))
        else if rows = [] then Sop.const_false n
        else Sop.create n (to_cubes on_rows)
      in
      st.nodes <- { Network.name; fanins; sop } :: st.nodes;
      Ok ()
    end

let network_of_string text =
  let st = { model = None; inputs = []; outputs = []; nodes = []; current = None } in
  let ( let* ) = Result.bind in
  let rec process = function
    | [] ->
      let* () = finish_node st in
      Ok
        {
          Network.model = Option.value st.model ~default:"top";
          inputs = List.rev st.inputs;
          outputs = List.rev st.outputs;
          nodes = List.rev st.nodes;
        }
    | (no, line) :: rest -> (
      let err message = Error { line = no; context = clip line; message } in
      match words line with
      | [] -> process rest
      | ".model" :: name ->
        let* () = finish_node st in
        if st.model <> None then err "duplicate .model directive"
        else begin
          st.model <- Some (match name with n :: _ -> n | [] -> "top");
          process rest
        end
      | ".inputs" :: ins ->
        let* () = finish_node st in
        st.inputs <- List.rev_append ins st.inputs;
        process rest
      | ".outputs" :: outs ->
        let* () = finish_node st in
        st.outputs <- List.rev_append outs st.outputs;
        process rest
      | [ ".end" ] -> process []
      | ".names" :: signals -> (
        let* () = finish_node st in
        match List.rev signals with
        | out :: fanins_rev ->
          st.current <- Some (out, List.rev fanins_rev, [], no);
          process rest
        | [] -> err ".names without signals")
      | ".gate" :: _ -> err "mapped .gate found; use circuit_of_string"
      | [ pattern; out ]
        when st.current <> None
             && String.for_all (fun c -> c = '0' || c = '1' || c = '-') pattern
             && (out = "0" || out = "1") -> (
        match st.current with
        | Some (name, fanins, rows, start) ->
          if String.length pattern <> List.length fanins then
            err (Printf.sprintf "node %s: row width mismatch" name)
          else begin
            st.current <- Some (name, fanins, (pattern, out.[0]) :: rows, start);
            process rest
          end
        | None -> assert false)
      | [ out ] when st.current <> None && (out = "0" || out = "1") -> (
        (* constant node: row with no inputs *)
        match st.current with
        | Some (name, fanins, rows, start) ->
          st.current <- Some (name, fanins, ("", out.[0]) :: rows, start);
          process rest
        | None -> assert false)
      | directive :: _ when String.length directive > 0 && directive.[0] = '.' ->
        err ("unsupported BLIF directive " ^ directive)
      | w :: _ -> err ("unexpected token " ^ w))
  in
  match process (logical_lines text) with
  | Ok net -> (
    match Network.validate net with
    | Ok () -> Ok net
    | Error e -> Error { line = 0; context = ""; message = e })
  | Error e -> Error e

(* An unreadable file is an error like any other.  The system's message
   mostly starts with the path, which the caller already has. *)
let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok text
  | exception Sys_error m ->
    let prefix = path ^ ": " in
    let reason =
      if String.starts_with ~prefix m then
        String.sub m (String.length prefix) (String.length m - String.length prefix)
      else m
    in
    Error { line = 0; context = ""; message = "cannot read file: " ^ reason }

let network_of_file path = Result.bind (read_file path) network_of_string

let network_to_string net =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (".model " ^ net.Network.model ^ "\n");
  Buffer.add_string buf (".inputs " ^ String.concat " " net.Network.inputs ^ "\n");
  Buffer.add_string buf (".outputs " ^ String.concat " " net.Network.outputs ^ "\n");
  List.iter
    (fun n ->
      Buffer.add_string buf
        (".names " ^ String.concat " " (n.Network.fanins @ [ n.Network.name ]) ^ "\n");
      let nv = Sop.num_vars n.Network.sop in
      List.iter
        (fun c -> Buffer.add_string buf (Cube.to_string nv c ^ " 1\n"))
        (Sop.cubes n.Network.sop))
    net.Network.nodes;
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Mapped circuits.                                                    *)
(* ------------------------------------------------------------------ *)

(* Gates in a canonical order: Kahn's topological sort that always
   draws the ready node with the smallest name.  The order depends only
   on the named structure, never on internal node ids, so a parse/emit
   round trip reproduces the file byte for byte. *)
let emit_order circ =
  let emittable id =
    match Circuit.kind circ id with
    | Circuit.Const _ | Circuit.Cell _ -> true
    | _ -> false
  in
  let module S = Set.Make (struct
    type t = string * Circuit.node_id

    let compare = Stdlib.compare
  end) in
  let deps = Hashtbl.create 64 in
  let ready = ref S.empty in
  Circuit.iter_live circ (fun id ->
      if emittable id then begin
        let n =
          match Circuit.kind circ id with
          | Circuit.Cell (_, fs) ->
            Array.fold_left (fun a f -> if emittable f then a + 1 else a) 0 fs
          | _ -> 0
        in
        Hashtbl.replace deps id n;
        if n = 0 then ready := S.add (Circuit.name circ id, id) !ready
      end);
  let out = ref [] in
  while not (S.is_empty !ready) do
    let ((_, id) as elt) = S.min_elt !ready in
    ready := S.remove elt !ready;
    Hashtbl.remove deps id;
    out := id :: !out;
    List.iter
      (fun (p : Circuit.pin) ->
        match Hashtbl.find_opt deps p.sink with
        | Some n ->
          let n = n - 1 in
          Hashtbl.replace deps p.sink n;
          if n = 0 then
            ready := S.add (Circuit.name circ p.sink, p.sink) !ready
        | None -> ())
      (Circuit.fanouts circ id)
  done;
  List.rev !out

let circuit_to_string circ =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf ".model mapped\n";
  Buffer.add_string buf
    (".inputs "
    ^ String.concat " " (List.map (Circuit.name circ) (Circuit.pis circ))
    ^ "\n");
  Buffer.add_string buf
    (".outputs "
    ^ String.concat " " (List.map (Circuit.name circ) (Circuit.pos circ))
    ^ "\n");
  List.iter
    (fun id ->
      match Circuit.kind circ id with
      | Circuit.Pi | Circuit.Po _ -> ()
      | Circuit.Const b ->
        Buffer.add_string buf
          (Printf.sprintf ".names %s\n%s" (Circuit.name circ id)
             (if b then "1\n" else ""))
      | Circuit.Cell (c, fs) ->
        Buffer.add_string buf (".gate " ^ c.Cell.name);
        Array.iteri
          (fun i f ->
            Buffer.add_string buf
              (Printf.sprintf " %s=%s" (pin_name i) (Circuit.name circ f)))
          fs;
        Buffer.add_string buf (Printf.sprintf " O=%s\n" (Circuit.name circ id)))
    (emit_order circ);
  (* PO connections: emit a buffer-free alias only when names differ *)
  List.iter
    (fun po ->
      let d = Circuit.po_driver circ po in
      if Circuit.name circ po <> Circuit.name circ d then
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n1 1\n" (Circuit.name circ d)
             (Circuit.name circ po)))
    (Circuit.pos circ);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let circuit_to_file path circ =
  let oc = open_out path in
  output_string oc (circuit_to_string circ);
  close_out oc

let circuit_of_string lib text =
  let ( let* ) = Result.bind in
  let inputs = ref [] and outputs = ref [] in
  let gates = ref [] (* (cell, [(pin_idx, net)], out_net) *) in
  let aliases = ref [] (* (src, dst) from 2-signal identity .names *) in
  let consts = ref [] (* (net, value) *) in
  let pending_names = ref None in
  let seen_model = ref false in
  (* the line that defined each net (a PI, a constant or a gate output)
     and each PO name: the netlist holds every name once *)
  let defined = Hashtbl.create 64 and po_names = Hashtbl.create 16 in
  let err0 message = Error { line = 0; context = ""; message } in
  let rec process = function
    | [] -> Ok ()
    | (no, line) :: rest -> (
      let err message = Error { line = no; context = clip line; message } in
      let define table what names =
        List.fold_left
          (fun acc name ->
            let* () = acc in
            match Hashtbl.find_opt table name with
            | Some first ->
              err (Printf.sprintf "duplicate %s %s (first on line %d)" what name first)
            | None ->
              Hashtbl.add table name no;
              Ok ())
          (Ok ()) names
      in
      match words line with
      | [] -> process rest
      | ".model" :: _ ->
        if !seen_model then err "duplicate .model directive"
        else begin
          seen_model := true;
          process rest
        end
      | ".inputs" :: ins ->
        let* () = define defined "name" ins in
        inputs := !inputs @ ins;
        process rest
      | ".outputs" :: outs ->
        let* () = define po_names "output" outs in
        outputs := !outputs @ outs;
        process rest
      | [ ".end" ] -> Ok ()
      | [ ".gate" ] | [ ".gate"; _ ] -> err "truncated .gate line"
      | ".gate" :: cell_name :: conns -> (
        match Library.find_opt lib cell_name with
        | None -> err ("unknown cell " ^ cell_name)
        | Some cell ->
          let* pins, out =
            List.fold_left
              (fun acc conn ->
                let* pins, out = acc in
                match String.index_opt conn '=' with
                | None -> err ("bad connection " ^ conn)
                | Some i ->
                  let formal = String.sub conn 0 i in
                  let actual =
                    String.sub conn (i + 1) (String.length conn - i - 1)
                  in
                  if formal = "O" then Ok (pins, Some actual)
                  else
                    let rec find_pin j =
                      if j >= Cell.arity cell then None
                      else if pin_name j = formal then Some j
                      else find_pin (j + 1)
                    in
                    (match find_pin 0 with
                    | Some j when List.mem_assoc j pins ->
                      err ("duplicate pin " ^ formal)
                    | Some j -> Ok ((j, actual) :: pins, out)
                    | None -> err ("unknown pin " ^ formal)))
              (Ok ([], None))
              conns
          in
          (match out with
          | None -> err ("gate without output: " ^ cell_name)
          | Some out ->
            if List.length pins <> Cell.arity cell then
              err ("gate pin count mismatch: " ^ cell_name)
            else begin
              let* () = define defined "name" [ out ] in
              gates := (cell, pins, out) :: !gates;
              process rest
            end))
      | [ ".names"; src; dst ] ->
        pending_names := Some (`Alias (src, dst));
        process rest
      | [ ".names"; net ] ->
        let* () = define defined "name" [ net ] in
        pending_names := Some (`Const net);
        consts := (net, false) :: !consts;
        process rest
      | [ "1"; "1" ] -> (
        match !pending_names with
        | Some (`Alias (src, dst)) ->
          aliases := (src, dst) :: !aliases;
          pending_names := None;
          process rest
        | Some (`Const _) | None -> err "unexpected 1 1 row")
      | [ "1" ] -> (
        match !pending_names with
        | Some (`Const net) ->
          (* flip the value in place: constants must keep their file
             order, or a round trip would renumber them *)
          consts :=
            List.map (fun (n, v) -> if n = net then (n, true) else (n, v)) !consts;
          pending_names := None;
          process rest
        | Some (`Alias _) | None -> err "unexpected 1 row")
      | w :: _ -> err ("unexpected token in mapped blif: " ^ w))
  in
  let* () = process (logical_lines text) in
  (* elaborate *)
  let circ = Circuit.create lib in
  let ids = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.add ids i (Circuit.add_pi circ ~name:i)) !inputs;
  List.iter
    (fun (net, v) ->
      let id = Circuit.add_const circ ~name:net v in
      Hashtbl.add ids net id)
    (List.rev !consts);
  let gates = List.rev !gates in
  (* iterate to fixpoint: create gates whose fanins are ready *)
  let remaining = ref gates in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    let still = ref [] in
    List.iter
      (fun ((cell, pins, out) as gate) ->
        let ready =
          List.for_all (fun (_, net) -> Hashtbl.mem ids net) pins
        in
        if ready then begin
          let fanins = Array.make (Cell.arity cell) (-1) in
          List.iter (fun (j, net) -> fanins.(j) <- Hashtbl.find ids net) pins;
          Hashtbl.add ids out (Circuit.add_cell circ ~name:out cell fanins);
          progress := true
        end
        else still := gate :: !still)
      !remaining;
    remaining := List.rev !still
  done;
  if !remaining <> [] then err0 "could not order gates (cycle or missing net)"
  else begin
    let resolve net =
      match Hashtbl.find_opt ids net with
      | Some id -> Ok id
      | None -> (
        match List.find_opt (fun (_, dst) -> dst = net) !aliases with
        | Some (src, _) -> (
          match Hashtbl.find_opt ids src with
          | Some id -> Ok id
          | None -> err0 ("undefined net " ^ net))
        | None -> err0 ("undefined net " ^ net))
    in
    let rec attach = function
      | [] -> Ok circ
      | o :: rest ->
        let* d = resolve o in
        let name = if Hashtbl.mem ids o && Circuit.name circ d = o then o ^ "$po" else o in
        (* a net literally named [o$po] takes the PO's name *)
        match Circuit.add_po circ ~name d with
        | _ -> attach rest
        | exception Invalid_argument m -> err0 m
    in
    attach !outputs
  end

let circuit_of_file lib path = Result.bind (read_file path) (circuit_of_string lib)

type t = {
  name : string;
  func : Logic.Tt.t;
  area : float;
  pin_caps : float array;
  out_cap : float;
  tau : float;
  drive_res : float;
}

let arity c = Logic.Tt.num_vars c.func

let make ~name ~func ~area ~pin_caps ?(out_cap = 0.0) ~tau ~drive_res () =
  if Array.length pin_caps <> Logic.Tt.num_vars func then
    invalid_arg "Cell.make: pin_caps arity mismatch";
  { name; func; area; pin_caps; out_cap; tau; drive_res }

let eval c inputs = Logic.Tt.eval c.func inputs

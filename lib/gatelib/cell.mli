(** A technology-library cell: logic function plus the physical data the
    power and timing models need.

    Power model: each input pin presents [pin_caps.(i)] units of
    capacitance to its driver; the cell output adds [out_cap] intrinsic
    capacitance to its own net.  Delay model (linear):
    [D = tau +. drive_res *. c_load]. *)

type t = {
  name : string;
  func : Logic.Tt.t;      (** over [arity] inputs, input [i] = pin [i] *)
  area : float;
  pin_caps : float array; (** length = arity *)
  out_cap : float;
  tau : float;            (** intrinsic delay *)
  drive_res : float;
}

val arity : t -> int

val make :
  name:string ->
  func:Logic.Tt.t ->
  area:float ->
  pin_caps:float array ->
  ?out_cap:float ->
  tau:float ->
  drive_res:float ->
  unit ->
  t
(** @raise Invalid_argument if [Array.length pin_caps <> Tt.num_vars func]. *)

val eval : t -> bool array -> bool

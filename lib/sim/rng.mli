(** Deterministic splitmix64 generator; every stochastic component of
    the library threads one of these explicitly so runs are
    reproducible. *)

type t

val create : int64 -> t
val next : t -> int64
val next_float : t -> float
(** Uniform in [0, 1). *)

val bits_with_prob : t -> float -> int64
(** A 64-bit word whose bits are independently 1 with probability [p]. *)

val derive : int64 -> string -> int64
(** [derive base label] is a domain-separated child seed: a splitmix
    hash of [base] and the stream label.  Every subsystem that needs
    its own pattern stream (optimizer, counterexample screen, guard
    re-verification, benchmarks, fuzzing) derives it this way from one
    user-visible seed, so streams are uncorrelated but reproducible —
    no ad-hoc [Int64.add seed 77L] offsets.  Distinct labels give
    distinct seeds; the same [(base, label)] pair always gives the
    same seed. *)

val stream : int64 -> string -> t
(** [create (derive base label)]. *)

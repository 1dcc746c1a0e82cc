(** Fermi–Dirac statistics with overflow-safe evaluation. *)

val occupation : mu:float -> kt:float -> float -> float
(** [occupation ~mu ~kt e] is [1 / (1 + exp ((e - mu) / kt))]; the [kt -> 0]
    limit is the step function. All energies in eV. *)

val window : mu1:float -> mu2:float -> kt:float -> float -> float
(** [f(E; mu1) - f(E; mu2)]: the Landauer current window. *)

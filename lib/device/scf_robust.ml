type rung = Anderson | Damped_restart | Linear_slow | Neighbor_continuation

type attempt = {
  rung : rung;
  status : Scf.status option;
  iterations : int;
  residual : float;
  error : string option;
}

type outcome = {
  solution : Scf.solution option;
  attempts : attempt list;
  recovered : bool;
}

(* Matches the Scf.solve default; the slow-linear rungs scale it. *)
let default_max_iter = 120

let c_retries = Obs.Counter.make "robust.scf.retries"
let c_escalations = Obs.Counter.make "robust.scf.escalations"
let c_recovered = Obs.Counter.make "robust.scf.recovered"
let c_unrecovered = Obs.Counter.make "robust.scf.unrecovered"

let solve_robust ?tol ?max_iter ?init ?neighbor p ~vg ~vd =
  let budget = 3 * Option.value max_iter ~default:default_max_iter in
  (* Rung 1 must be the exact call a direct Scf.solve user would make:
     optional arguments pass through as given so Scf's own defaults
     apply and a converging point is bit-for-bit unchanged by the
     wrapper. *)
  let rungs =
    [
      ( Anderson,
        fun ~warm ->
          Scf.solve ?tol ?max_iter ?init:warm p ~vg ~vd );
      ( Damped_restart,
        fun ~warm ->
          Scf.solve ?tol ?max_iter ?init:warm
            ~mixing:(`Anderson_damped 0.2) p ~vg ~vd );
      ( Linear_slow,
        fun ~warm ->
          Scf.solve ?tol ~max_iter:budget ?init:warm ~mixing:(`Linear 0.1)
            p ~vg ~vd );
    ]
    @
    match neighbor with
    | None -> []
    | Some nb ->
      [
        ( Neighbor_continuation,
          fun ~warm:_ ->
            Scf.solve ?tol ~max_iter:budget ~init:nb ~mixing:(`Linear 0.1)
              p ~vg ~vd );
      ]
  in
  let best = ref None in
  let consider (s : Scf.solution) =
    match !best with
    | Some (b : Scf.solution) when b.residual <= s.residual -> ()
    | Some _ | None -> best := Some s
  in
  let rec climb rungs attempts =
    match rungs with
    | [] -> List.rev attempts
    | (rung, run) :: rest ->
      if attempts <> [] then begin
        Obs.Counter.incr c_retries;
        if List.length attempts = 1 then Obs.Counter.incr c_escalations
      end;
      (* Warm-start every rung after the first from the best iterate so
         far (falling back to the caller's init when every prior attempt
         raised before producing one). *)
      let warm =
        if attempts = [] then init
        else
          match !best with
          | Some (s : Scf.solution) -> Some s.Scf.potential
          | None -> init
      in
      let a, converged =
        match run ~warm with
        | (s : Scf.solution) ->
          consider s;
          ( {
              rung;
              status = Some s.status;
              iterations = s.iterations;
              residual = s.residual;
              error = None;
            },
            s.status = Scf.Converged )
        | exception
            (Robust_error.Error
               ( Robust_error.Singular _
               | Robust_error.Iterative_no_convergence _
               | Robust_error.Injected_fault _ ) as e) ->
          ( {
              rung;
              status = None;
              iterations = 0;
              residual = infinity;
              error = Some (Printexc.to_string e);
            },
            false )
      in
      let attempts = a :: attempts in
      if converged then List.rev attempts else climb rest attempts
  in
  let attempts = climb rungs [] in
  let converged =
    match !best with
    | Some (s : Scf.solution) -> s.status = Scf.Converged
    | None -> false
  in
  let recovered = converged && List.length attempts > 1 in
  if recovered then Obs.Counter.incr c_recovered;
  if not converged then Obs.Counter.incr c_unrecovered;
  { solution = !best; attempts; recovered }

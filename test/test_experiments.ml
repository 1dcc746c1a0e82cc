(* Executable paper claims on lib/experiments: each case checks one row
   of EXPERIMENTS.md, so a change that breaks the claim fails here. *)

(* EXPERIMENTS.md, Ablations, "SCF acceleration": Anderson converges in
   about 10 iterations where plain under-relaxation needs 40-130. *)
let test_anderson_beats_linear () =
  let results = Ablations.mixing () in
  Alcotest.(check (list string))
    "schemes"
    [ "anderson(5)"; "linear(0.3)"; "linear(0.1)" ]
    (List.map (fun r -> r.Ablations.scheme) results);
  List.iter
    (fun r ->
      Alcotest.(check bool) (r.Ablations.scheme ^ " converges") true
        r.Ablations.converged)
    results;
  let anderson = List.hd results in
  List.iter
    (fun r ->
      if anderson.Ablations.iterations >= r.Ablations.iterations then
        Alcotest.failf "Anderson took %d iterations, %s only %d"
          anderson.Ablations.iterations r.Ablations.scheme r.Ablations.iterations)
    (List.tl results)

let suite =
  [
    Alcotest.test_case "SCF acceleration: Anderson beats linear mixing" `Quick
      test_anderson_beats_linear;
  ]

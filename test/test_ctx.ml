(* The execution context: [make] overrides fields of [default] and
   [sequential] flips only [parallel] (docs/API.md). *)

let test_ctx_builders () =
  let d = Ctx.make () in
  Alcotest.(check bool) "make () keeps default parallel" Ctx.default.Ctx.parallel
    d.Ctx.parallel;
  Alcotest.(check bool) "make () keeps global obs" true (d.Ctx.obs == Obs.global);
  let o = Obs.create () in
  let c = Ctx.make ~parallel:true ~obs:o () in
  Alcotest.(check bool) "make parallel" true c.Ctx.parallel;
  Alcotest.(check bool) "make obs" true (c.Ctx.obs == o);
  let s = Ctx.sequential c in
  Alcotest.(check bool) "sequential flips parallel" false s.Ctx.parallel;
  Alcotest.(check bool) "sequential keeps obs" true (s.Ctx.obs == o)

let suite = [ Alcotest.test_case "builders" `Quick test_ctx_builders ]

let () =
  Alcotest.run "gnrfet"
    [
      ("numerics:basic", Test_numerics_basic.suite);
      ("numerics:linalg", Test_numerics_linalg.suite);
      ("numerics:interp+contour", Test_numerics_interp.suite);
      ("numerics:parallel", Test_parallel.suite);
      ("obs", Test_obs.suite);
      ("physics+gnr", Test_gnr.suite);
      ("negf", Test_negf.suite);
      ("poisson", Test_poisson.suite);
      ("device", Test_device.suite);
      ("device:tbl-format", Test_tbl_format.suite);
      ("device:golden-trace", Test_golden_trace.suite);
      ("robust", Test_robust.suite);
      ("serve", Test_serve.suite);
      ("campaign", Test_campaign.suite);
      ("circuit", Test_circuit.suite);
      ("cmos", Test_cmos.suite);
      ("core", Test_core.suite);
      ("extensions", Test_extensions.suite);
      ("experiments", Test_experiments.suite);
      ("properties", Test_properties.suite);
      ("integration", Test_integration.suite);
      ("lint", Test_lint.suite);
    ]

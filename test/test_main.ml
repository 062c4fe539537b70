let () =
  Alcotest.run "distal"
    (Test_support.suites @ Test_tensor.suites @ Test_machine.suites
   @ Test_ir.suites @ Test_distnot.suites @ Test_schedule.suites
   @ Test_runtime.suites @ Test_semantics.suites @ Test_algorithms.suites @ Test_oracle.suites @ Test_auto.suites @ Test_pipeline.suites @ Test_codegen.suites @ Test_trace.suites @ Test_bounds.suites @ Test_harness.suites @ Test_gantt.suites @ Test_errors.suites @ Test_volumes.suites @ Test_exec_details.suites @ Test_lexer.suites @ Test_misc.suites @ Test_cyclic.suites @ Test_obs.suites @ Test_tile_query.suites @ Test_comm_plan.suites @ Test_parallel.suites
   @ Test_fault.suites @ Test_serve.suites @ Test_kernels.suites
   @ Test_plan_reuse.suites @ Test_golden.suites @ Test_host_gauges.suites
   @ Test_preconditions.suites)

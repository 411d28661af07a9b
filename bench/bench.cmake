# Bench targets: one binary per reproduced table/figure, all emitted into
# build/bench/ (and nothing else lands there, so `for b in build/bench/*`
# runs the whole harness).
function(lunule_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  target_link_libraries(${name} PRIVATE lunule_sim lunule_warnings)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

lunule_bench(table1_workloads)
lunule_bench(fig02_request_distribution)
lunule_bench(fig03_per_mds_throughput)
lunule_bench(fig04_migrated_inodes)
lunule_bench(fig06_imbalance_factor)
lunule_bench(fig07_throughput)
lunule_bench(fig08_end_to_end)
lunule_bench(fig09_mixed_if)
lunule_bench(fig10_mixed_throughput)
lunule_bench(fig11_jct_cdf)
lunule_bench(fig12_dynamics)
lunule_bench(fig13_scalability)
lunule_bench(fig14_dirhash)
lunule_bench(table_overhead)

# Microbenchmarks use google-benchmark.
lunule_bench(micro_core)
target_link_libraries(micro_core PRIVATE benchmark::benchmark)

# Extension and ablation benches.
lunule_bench(ext_generality)
lunule_bench(ablation_lunule)
lunule_bench(ablation_urgency)
lunule_bench(micro_substrate)
target_link_libraries(micro_substrate PRIVATE benchmark::benchmark)
lunule_bench(latency_profile)
lunule_bench(ext_replication)
lunule_bench(ext_fault_recovery)
lunule_bench(table_journal_overhead)
lunule_bench(micro_hotpath)
lunule_bench(ext_elasticity)
lunule_bench(ext_proxy_cache)
lunule_bench(ext_async_journal)

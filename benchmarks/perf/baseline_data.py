"""Recorded pre-change baseline for ``scripts/run_benchmarks.py``.

The numbers are a live run of the benchmark harness against the
checkout immediately before the incremental evaluation engine
landed, taken on the same machine that produced the shipped
``BENCH_search.json``.  Absolute seconds are machine-specific —
when comparing on different hardware, re-measure the baseline
with ``--baseline-src`` instead of trusting these constants.

``PERF_TOLERANCES`` at the bottom is the perf-regression gate read by
``scripts/check_perf.py``: deterministic search/phase counters (exact
match required) plus recorded CPU seconds (bounded by ``cpu_ratio``).
Re-record it with ``scripts/check_perf.py --print-tolerances``.
"""

BASELINE = {'source': 'commit 7da3614 (pre-change)',
 'note': 'recorded from a live measurement of the pre-incremental-engine '
         'checkout (commit 7da3614) on the development machine; re-record '
         'with scripts/run_benchmarks.py --baseline-src.  The apps-6 rows '
         'were measured the same way with the old checkout\'s scenario '
         'table extended to the 6-application/12-host testbed (the '
         'pre-change scenarios module topped out at 4 applications; the '
         'search code itself is untouched by that patch).',
 'search': {'apps-2': {'naive': {'app_count': 2,
                                 'host_count': 4,
                                 'self_aware': False,
                                 'incremental': True,
                                 'runs': 5,
                                 'mean_search_seconds': 0.021203450400389557,
                                 'min_search_seconds': 0.00797169700035738,
                                 'mean_cpu_seconds': 0.021163755599999945,
                                 'total_expansions': 56,
                                 'total_estimator_evaluations': 175,
                                 'incremental_evaluations': 0},
                       'self_aware': {'app_count': 2,
                                      'host_count': 4,
                                      'self_aware': True,
                                      'incremental': True,
                                      'runs': 5,
                                      'mean_search_seconds': 0.02081643180008541,
                                      'min_search_seconds': 0.008192736999262706,
                                      'mean_cpu_seconds': 0.020634428199998923,
                                      'total_expansions': 56,
                                      'total_estimator_evaluations': 175,
                                      'incremental_evaluations': 0}},
            'apps-3': {'naive': {'app_count': 3,
                                 'host_count': 6,
                                 'self_aware': False,
                                 'incremental': True,
                                 'runs': 5,
                                 'mean_search_seconds': 0.10059061339998152,
                                 'min_search_seconds': 0.07436847799999668,
                                 'mean_cpu_seconds': 0.09939910199999957,
                                 'total_expansions': 119,
                                 'total_estimator_evaluations': 315,
                                 'incremental_evaluations': 0},
                       'self_aware': {'app_count': 3,
                                      'host_count': 6,
                                      'self_aware': True,
                                      'incremental': True,
                                      'runs': 5,
                                      'mean_search_seconds': 0.10141756279990659,
                                      'min_search_seconds': 0.07200761900003272,
                                      'mean_cpu_seconds': 0.10004510300000077,
                                      'total_expansions': 119,
                                      'total_estimator_evaluations': 315,
                                      'incremental_evaluations': 0}},
            'apps-4': {'naive': {'app_count': 4,
                                 'host_count': 8,
                                 'self_aware': False,
                                 'incremental': True,
                                 'runs': 5,
                                 'mean_search_seconds': 1.8589275336003994,
                                 'min_search_seconds': 0.6456311650008502,
                                 'mean_cpu_seconds': 1.8362755568000027,
                                 'total_expansions': 1110,
                                 'total_estimator_evaluations': 2613,
                                 'incremental_evaluations': 0},
                       'self_aware': {'app_count': 4,
                                      'host_count': 8,
                                      'self_aware': True,
                                      'incremental': True,
                                      'runs': 5,
                                      'mean_search_seconds': 2.4749782593997223,
                                      'min_search_seconds': 0.5883167089996277,
                                      'mean_cpu_seconds': 2.442391570199996,
                                      'total_expansions': 4079,
                                      'total_estimator_evaluations': 3468,
                                      'incremental_evaluations': 0}},
            'apps-6': {'naive': {'app_count': 6,
                                 'host_count': 12,
                                 'self_aware': False,
                                 'incremental': True,
                                 'runs': 5,
                                 'mean_search_seconds': 0.24422359359996335,
                                 'min_search_seconds': 0.056903220000094734,
                                 'mean_cpu_seconds': 0.2343277134,
                                 'total_expansions': 71,
                                 'total_estimator_evaluations': 284,
                                 'incremental_evaluations': 0},
                       'self_aware': {'app_count': 6,
                                      'host_count': 12,
                                      'self_aware': True,
                                      'incremental': True,
                                      'runs': 5,
                                      'mean_search_seconds': 0.25774686240001754,
                                      'min_search_seconds': 0.07432123000035062,
                                      'mean_cpu_seconds': 0.2467770912000006,
                                      'total_expansions': 71,
                                      'total_estimator_evaluations': 284,
                                      'incremental_evaluations': 0}}},
 'solver': {'apps-2': {'app_count': 2,
                       'host_count': 4,
                       'full_solves_per_cpu_second': 43957.23827904603,
                       'incremental_evals_per_cpu_second': None},
            'apps-3': {'app_count': 3,
                       'host_count': 6,
                       'full_solves_per_cpu_second': 29879.15736122123,
                       'incremental_evals_per_cpu_second': None},
            'apps-4': {'app_count': 4,
                       'host_count': 8,
                       'full_solves_per_cpu_second': 21578.537962519735,
                       'incremental_evals_per_cpu_second': None}}}

PERF_TOLERANCES = {'source': 'commit c10597a (development machine)',
 'note': 'recorded by scripts/check_perf.py --print-tolerances; '
         'counters are exact, CPU seconds are gated at cpu_ratio times '
         'these values (machine-specific — re-record on new hardware, '
         'or loosen with --cpu-ratio)',
 'sizes': [2, 3],
 'runs': 3,
 'cpu_ratio': 1.75,
 'min_gate_cpu_seconds': 0.005,
 'search': {'apps-2': {'mean_search_seconds': 0.017024508333027672,
                       'mean_cpu_seconds': 0.01689574000000001,
                       'total_expansions': 31,
                       'total_estimator_evaluations': 87},
            'apps-3': {'mean_search_seconds': 0.029870854666417774,
                       'mean_cpu_seconds': 0.028228429000000037,
                       'total_expansions': 61,
                       'total_estimator_evaluations': 171}},
 'phases': {'enumerate': {'wall': 0.007252717990922974,
                          'cpu': 0.007210530000002713,
                          'calls': 92},
            'score': {'wall': 0.0037346690023696283,
                      'cpu': 0.0036689829999982937,
                      'calls': 46},
            'merge': {'wall': 0.042245714997989126,
                      'cpu': 0.04228280999999812,
                      'calls': 92},
            'frontier': {'wall': 0.011326038007609895,
                         'cpu': 0.01135536699999995,
                         'calls': 92}},
 # Fresh Perf-Pwr optimizations of check_perf.IDEAL_VECTORS seeded
 # workload vectors (scripts/check_perf.py measure_ideal), recorded on
 # the 2-core development machine (CPU seconds: the median of three
 # measurements, with the walks of each workload vector sharing one
 # tier-solve memo and stepping on the plan alone); the rows above
 # predate this entry.
 'ideal': {'apps-2': {'mean_cpu_seconds': 0.035559556666666624,
                      'plans_scored': 5600,
                      'tier_solves': 799,
                      'steps': 690,
                      'evaluations': 32},
           'apps-4': {'mean_cpu_seconds': 0.09772567599999997,
                      'plans_scored': 22167,
                      'tier_solves': 1668,
                      'steps': 1437,
                      'evaluations': 48}}}

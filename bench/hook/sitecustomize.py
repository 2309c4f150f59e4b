"""Interpreter start-up hook for benchmark invocations of lazytd.

This directory is put on PYTHONPATH only for processes the benchmark
launches. The hook stays inert unless LAZYTD_BENCH_HOOK is set; worker
processes inherit the variable, so a process-based sweep is instrumented
the same way as the process that started it.
"""

import os

if os.environ.get("LAZYTD_BENCH_HOOK"):
    import benchhook

    benchhook.install_from_env()

"""The perf ledger: one command, seven workloads, client-timed end-to-end
metrics and an outside-in per-layer breakdown (see README.md here)."""

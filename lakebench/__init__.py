"""CDC lake benchmark: backfill, upsert and serve workloads (see README.md)."""

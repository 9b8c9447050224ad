"""Fleet-simulator benchmark: workloads, end-to-end metrics, layer trace."""

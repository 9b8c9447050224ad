"""DejaVu proxy substrate.

The proxy sits between the transport and application layers, duplicating
the incoming traffic of one profiled instance to a clone VM in the
profiling environment (Sec. 3.2).  Three aspects matter to the
evaluation and are modeled here:

* session-granularity sampling and traffic accounting
  (:mod:`repro.proxy.duplicator`) — the network overhead argument of
  Sec. 4.4 (≈1/n of inbound traffic, ≈0.1% of total at n=100);
* the answer cache that mimics absent downstream tiers when profiling a
  middle tier (:mod:`repro.proxy.answer_cache`);
* the production-side latency overhead of duplication
  (:mod:`repro.proxy.overhead`) — measured at ≈3 ms in Sec. 4.4.
"""

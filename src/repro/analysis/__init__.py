"""Static and dynamic concurrency/determinism analysis for this repo.

Two halves:

* :mod:`repro.analysis.rules` + :mod:`repro.analysis.linter` — the
  ``holistix-lint`` AST rules (HX001–HX004) that check lock
  discipline, seeded-path determinism and thread ownership at lint
  time.
* :mod:`repro.analysis.lockcheck` — the ``REPRO_LOCK_CHECK=1`` runtime
  lock-order registry (:class:`~repro.analysis.lockcheck.OrderedLock`)
  that turns potential deadlocks and lock-contract violations into
  deterministic test failures.

The package re-exports nothing, so every serving lock created through
:func:`~repro.analysis.lockcheck.create_lock` loads the lock checker
without the AST linter.  See ``docs/STATIC_ANALYSIS.md`` for the rule
catalogue.
"""

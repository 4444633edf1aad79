"""Per-packet fast-path machinery: skb pooling and header-stack caching.

Everything in this package is a *pure optimization*: enabling or
disabling it must never change an experiment's results.  The golden
digest tests in ``tests/test_fastpath_golden.py`` pin that contract for
every stack mode, with and without tracing attached.
"""

"""Empty: the estimators and the verify suites run on one thread.

The module is kept, without code, only because the bench tracer
(``bench/tracer.py``) still lists ``polymerlab.parallel`` among the modules
it scans; it goes when the tracer is replaced.
"""

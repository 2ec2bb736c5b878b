"""End-to-end benchmark of the soidomino mapping stack.

Four workloads, from the paper's registry sweep to the serving daemon,
timed end to end with tracing off and layer by layer in a separate
traced run.  ``python -m bench --help`` lists the entry points; the
README in this directory explains the workloads and metrics.

Importing this package has no side effects: the command line in
``__main__`` puts the checkout's ``src/`` on ``sys.path`` before any
workload module imports ``repro``.
"""

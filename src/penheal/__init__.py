"""Two-stage automated pentest and remediation pipeline.

Stage one drives an iterative multi-agent loop (planner, instructor,
executor, summarizer, extractor) against a target to discover multiple
vulnerabilities; stage two scores candidate fixes and selects an optimal
set under a user budget. All model and network dependencies are pluggable,
so the whole pipeline also runs hermetically against bundled replay
fixtures and a simulated victim host.
"""

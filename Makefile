# Convenience targets for the repro project.

PYTHON ?= python

.PHONY: install test lint lint-changed bench bench-large bench-figures bench-updates bench-trend bench-shard examples clean loc regress regress-bless oracle oracle-updates oracle-shard serve-smoke obs-smoke shard-smoke trace

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

LINT_ROOTS = src/ tests/ benchmarks/ examples/ tools/

lint:
	PYTHONPATH=src $(PYTHON) -m repro.lint $(LINT_ROOTS) \
		--cache .lint-cache --baseline .lint-baseline.json

# Analyze the whole program (cross-module rules need full context) but
# report findings only for files changed relative to origin/main.
lint-changed:
	PYTHONPATH=src $(PYTHON) -m repro.lint $(LINT_ROOTS) \
		--cache .lint-cache --baseline .lint-baseline.json \
		--only "$$(git diff --name-only origin/main... -- '*.py' | paste -sd, -)"

regress:
	PYTHONPATH=src $(PYTHON) -m repro.regress run

regress-bless:
	PYTHONPATH=src $(PYTHON) -m repro.regress bless

# The differential harness, one subject per target, each swept in every
# kernel mode.  Engines vs BZ on the 26 tiny suite graphs.
oracle:
	PYTHONPATH=src $(PYTHON) -m repro.regress oracle --subject engines

# The batch engine vs a full recompute: SMALL x 3 profiles x 7 seeds.
oracle-updates:
	PYTHONPATH=src $(PYTHON) -m repro.regress oracle --subject updates

# Shard counts {1,2,3,4,7} vs the single-process run: bit-equal
# coreness and identical simulated ledger on the whole generator suite.
oracle-shard:
	PYTHONPATH=src $(PYTHON) -m repro.regress oracle --subject shard

# One sharded decomposition at worker counts 0 (inline, the schedule
# hindex_coreness runs), 1 and 2; the reports must be byte-identical (the
# worker-count invariance contract).  Then the alternative-models bench:
# exact hindex and semi-external coreness within their round bounds.
shard-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.shard GRID --tiny --workers 0 \
		--output shard-smoke-w0.json
	PYTHONPATH=src $(PYTHON) -m repro.shard GRID --tiny --workers 1 \
		--output shard-smoke-w1.json
	PYTHONPATH=src $(PYTHON) -m repro.shard GRID --tiny --workers 2 \
		--output shard-smoke-w2.json
	cmp shard-smoke-w1.json shard-smoke-w0.json
	cmp shard-smoke-w1.json shard-smoke-w2.json
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_alternative_models.py \
		-q -p no:cacheprovider

serve-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.serve --tiny

obs-smoke: trace
	PYTHONPATH=src $(PYTHON) -m repro.serve --tiny --graph GRID \
		--trace serve-tiny.trace.json --metrics \
		--metrics-output serve-tiny.obs.json --prom serve-tiny.prom \
		--output serve-tiny.json

# Re-run the tiny matrix cold and gate it against the committed baseline.
bench-trend:
	PYTHONPATH=src $(PYTHON) -m repro.bench --tiny --refresh \
		--cache-dir .bench_cache_trend \
		--output BENCH_wallclock_tiny_fresh.json
	PYTHONPATH=src $(PYTHON) -m repro.obs trend \
		BENCH_wallclock_tiny.json BENCH_wallclock_tiny_fresh.json \
		--max-regress 1.25

bench:
	PYTHONPATH=src $(PYTHON) -m repro.bench

bench-large:
	PYTHONPATH=src REPRO_GRAPH_CACHE=.graph_cache $(PYTHON) -m repro.bench --large --output BENCH_wallclock_large.json

bench-updates:
	PYTHONPATH=src $(PYTHON) -m repro.bench --updates

bench-shard:
	PYTHONPATH=src REPRO_GRAPH_CACHE=.graph_cache $(PYTHON) -m repro.bench --shard --large

trace:
	PYTHONPATH=src $(PYTHON) -m repro.trace ours GRID --tiny \
		--output trace-smoke.trace.json --flame trace-smoke.folded

bench-figures:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

examples:
	@for f in examples/*.py; do echo "=== $$f"; $(PYTHON) $$f || exit 1; done

loc:
	@find src tests benchmarks examples -name "*.py" | xargs wc -l | tail -1

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +

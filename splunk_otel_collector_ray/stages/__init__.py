# Stage modules are imported directly (splunk_otel_collector_ray.stages.parse
# etc.); no eager re-exports so partial installs / lazy imports stay cheap.


def stage_fn(cls, *args, **kwargs):
    """The one map-stage shape: ``ds.map_batches(stage_fn(Cls, *args,
    **kwargs), batch_format="pyarrow")`` runs the callable class ``Cls``
    as a TASK function, never on an actor pool.

    The driver captures the arguments (broadcast ``ObjectRef``s included)
    in the closure. A task's first batch resolves every top-level
    ``ObjectRef`` with ``ray.get`` and builds ``Cls(*args, **kwargs)``; its
    later batches reuse it. Ray ships the closure to each task by value, so
    the instance is built ONCE PER TASK, not once per worker process (a
    probe at ``num_cpus=2`` built it 16 times for 16 tasks in one worker
    process). ``Cls`` stays a plain callable over plain values."""
    stage = None

    def run(batch):
        nonlocal stage
        if stage is None:
            import ray

            def get(v):
                return ray.get(v) if isinstance(v, ray.ObjectRef) else v

            stage = cls(*map(get, args),
                        **{k: get(v) for k, v in kwargs.items()})
        return stage(batch)

    run.__name__ = run.__qualname__ = cls.__name__  # ds.stats() op name
    return run

"""Property-based tests: kernel event ordering and memory walkthroughs."""

from hypothesis import given, settings, strategies as st

from repro.nt.memory import AddressSpace, HEAP, STACK, copy_variables
from repro.simnet.kernel import SimKernel


@given(st.lists(st.floats(min_value=0.0, max_value=1_000.0, allow_nan=False), min_size=1, max_size=40))
def test_callbacks_fire_in_nondecreasing_time_order(delays):
    kernel = SimKernel()
    fired = []
    for delay in delays:
        kernel.schedule(delay, lambda: fired.append(kernel.now))
    kernel.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert kernel.now == max(delays)


@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
)
def test_run_until_never_executes_future_events(delays, horizon):
    kernel = SimKernel()
    fired = []
    for delay in delays:
        kernel.schedule(delay, lambda d=delay: fired.append(d))
    kernel.run(until=horizon)
    assert all(delay <= horizon for delay in fired)
    assert sorted(fired) == sorted(d for d in delays if d <= horizon)


@given(st.data())
@settings(max_examples=50)
def test_clock_is_monotone_under_nested_scheduling(data):
    kernel = SimKernel()
    observed = []
    depth = data.draw(st.integers(min_value=1, max_value=5))

    def reschedule(level):
        observed.append(kernel.now)
        if level < depth:
            extra = data.draw(
                st.floats(min_value=0.0, max_value=10.0, allow_nan=False), label=f"extra{level}"
            )
            kernel.schedule(extra, reschedule, level + 1)

    kernel.schedule(1.0, reschedule, 0)
    kernel.run()
    assert observed == sorted(observed)


# -- memory walkthroughs ------------------------------------------------------

variable_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")), min_size=1, max_size=8
)
plain_values = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=16),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=4),
)


@given(
    regions=st.dictionaries(
        variable_names,
        st.dictionaries(variable_names, plain_values, max_size=6),
        min_size=1,
        max_size=4,
    )
)
def test_walkthrough_restore_roundtrip(regions):
    source = AddressSpace("src")
    for index, (region_name, variables) in enumerate(regions.items()):
        kind = (HEAP, STACK)[index % 2]
        if region_name != "globals":
            source.map_region(region_name, kind)
        for variable, value in variables.items():
            source.write(variable, value, region=region_name)
    image = source.walkthrough()

    # Restore the way an application's launch does: copy the image's
    # variables and write them into a fresh address space.
    target = AddressSpace("dst")
    for region_name, data in image.items():
        if not target.has_region(region_name):
            target.map_region(region_name, HEAP)
        for variable, value in copy_variables(data).items():
            target.write(variable, value, region=region_name)
    assert target.walkthrough() == image


@given(
    variables=st.dictionaries(variable_names, plain_values, min_size=1, max_size=8),
    mutations=st.dictionaries(variable_names, plain_values, max_size=8),
)
def test_walkthrough_is_isolated_from_later_mutation(variables, mutations):
    space = AddressSpace("app")
    for variable, value in variables.items():
        space.write(variable, value)
    image = space.walkthrough()
    snapshot = {name: value for name, value in image["globals"].items()}
    for variable, value in mutations.items():
        space.write(variable, value)
    assert image["globals"] == snapshot

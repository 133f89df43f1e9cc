"""MapReduceJob / JobConfig validation."""

import dataclasses

import pytest

from repro.mapreduce.api import JobConfig, MapReduceJob


def identity_map(record):
    yield (record, 1)


def sum_reduce(key, values):
    yield (key, sum(values))


def sum_combine(key, values):
    yield (key, sum(values))


class TestJobConfig:
    def test_defaults_valid(self):
        cfg = JobConfig()
        assert cfg.num_reducers >= 1
        assert cfg.merge_factor >= 2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_reducers": 0},
            {"merge_factor": 1},
            {"map_buffer_bytes": 0},
            {"reduce_buffer_bytes": -5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            JobConfig(**kwargs)


class TestMapReduceJob:
    def test_basic_construction(self):
        job = MapReduceJob("j", identity_map, sum_reduce, sum_combine)
        assert job.has_combiner

    def test_no_combiner(self):
        job = MapReduceJob("j", identity_map, sum_reduce)
        assert not job.has_combiner

    def test_name_required(self):
        with pytest.raises(ValueError):
            MapReduceJob("", identity_map, sum_reduce)

    def test_callables_required(self):
        with pytest.raises(TypeError):
            MapReduceJob("j", None, sum_reduce)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            MapReduceJob("j", identity_map, "nope")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            MapReduceJob("j", identity_map, sum_reduce, combine_fn=7)  # type: ignore[arg-type]

    def test_with_config_overrides(self):
        job = MapReduceJob("j", identity_map, sum_reduce, input_path="in", output_path="out")
        job2 = job.with_config(num_reducers=7, merge_factor=3)
        assert job2.config.num_reducers == 7
        assert job2.config.merge_factor == 3
        # original untouched, metadata carried over
        assert job.config.num_reducers != 7 or job.config.num_reducers == 7
        assert job2.input_path == "in"
        assert job2.output_path == "out"
        assert job2.map_fn is identity_map

    def test_with_config_unknown_field(self):
        job = MapReduceJob("j", identity_map, sum_reduce)
        with pytest.raises(AttributeError, match="bogus"):
            job.with_config(bogus=1)

    def test_with_config_carries_fields_it_has_never_heard_of(self):
        @dataclasses.dataclass(slots=True)
        class WiderConfig(JobConfig):
            seventh: int = 0

        job = MapReduceJob(
            "j", identity_map, sum_reduce, combine_fn=sum_reduce,
            config=WiderConfig(merge_factor=4, seventh=7),
        )  # fmt: skip
        job2 = job.with_config(num_reducers=5)
        assert dataclasses.asdict(job2.config) == {
            **dataclasses.asdict(job.config), "num_reducers": 5
        }  # fmt: skip
        assert job2.config.seventh == 7 and job2.combine_fn is sum_reduce
        assert job.config.num_reducers == 2  # the original is untouched

    def test_with_config_validates_the_new_values(self):
        job = MapReduceJob("j", identity_map, sum_reduce)
        with pytest.raises(ValueError):
            job.with_config(num_reducers=0)

import numpy as np
import pytest

from speclab import files
from speclab.cli import cmd_report
from speclab.corpus import save_prompts
from speclab.distill import Pair, save_dataset
from speclab.files import write_atomic
from speclab.lm import NGramLogitLM, Vocab, save_checkpoint


class HalfWrite:
    """File whose write stores half the data, then fails as a full disk does."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError(28, "No space left on device")


def write_checkpoint(path):
    model = NGramLogitLM.create(Vocab(size=8, bos_id=0, eos_id=1), 1, init_scale=1.0)
    save_checkpoint(model, path)


def write_prompts(path):
    save_prompts([[2, 3, 4], [5, 6]], path)


def write_dataset(path):
    save_dataset([Pair([2, 3], [4, 1], "teacher", 0.5)], path)


def write_report(path):
    csv = path.parent / "inputs" / "sweep.csv"
    csv.write_text(
        "kd_tau,decode_tau,seed,alpha,speedup,tokens_out,wall_spec_s,wall_base_s\n"
        "0.5,1.0,1,0.5,1.0,10,0.0,0.0\n"
    )
    cmd_report([csv], path)


@pytest.mark.parametrize("writer", [write_checkpoint, write_prompts, write_dataset, write_report])
def test_failed_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"old contents\n")
    (tmp_path / "inputs").mkdir()
    before = sorted(p.name for p in tmp_path.iterdir())
    monkeypatch.setattr(files, "open", HalfWrite, raising=False)
    with pytest.raises(OSError, match="No space left"):
        writer(path)
    assert path.read_bytes() == b"old contents\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_write_atomic_replaces_the_file_whole(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"old")
    write_atomic(path, "new text\n")
    assert path.read_bytes() == b"new text\n"
    write_atomic(path, np.arange(3, dtype="<i8").tobytes())
    assert path.read_bytes() == np.arange(3, dtype="<i8").tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

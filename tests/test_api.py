"""Tests for repro.api: path validation, FsOp, OpResult."""

import pytest

from repro.api import (
    FsOp,
    OP_DISPATCH,
    OP_SIGNATURES,
    OpResult,
    OpenFlags,
    op,
    parent_and_name,
    split_path,
    validate_name,
)
from repro.errors import Errno, FsError
from repro.spec.model import SpecFilesystem


class TestPathValidation:
    def test_root_splits_empty(self):
        assert split_path("/") == []

    def test_simple_paths(self):
        assert split_path("/a") == ["a"]
        assert split_path("/a/b/c") == ["a", "b", "c"]

    def test_trailing_slash_tolerated(self):
        assert split_path("/a/b/") == ["a", "b"]

    def test_relative_rejected(self):
        with pytest.raises(FsError) as e:
            split_path("a/b")
        assert e.value.errno == Errno.EINVAL

    def test_double_slash_rejected(self):
        with pytest.raises(FsError):
            split_path("/a//b")

    def test_dot_components_rejected(self):
        for bad in ("/a/./b", "/.."):
            with pytest.raises(FsError):
                split_path(bad)

    def test_non_string_rejected(self):
        with pytest.raises(FsError):
            split_path(123)  # type: ignore[arg-type]

    def test_name_too_long(self):
        with pytest.raises(FsError) as e:
            validate_name("x" * 256)
        assert e.value.errno == Errno.ENAMETOOLONG

    def test_illegal_characters(self):
        with pytest.raises(FsError):
            validate_name("a\x00b")
        with pytest.raises(FsError):
            validate_name("a/b")

    def test_parent_and_name(self):
        assert parent_and_name("/a/b/c") == (["a", "b"], "c")
        assert parent_and_name("/top") == ([], "top")
        with pytest.raises(FsError):
            parent_and_name("/")


class TestFsOp:
    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            FsOp(name="chmod", args={})

    def test_unknown_arg_rejected(self):
        with pytest.raises(ValueError):
            op("mkdir", nonsense=1)

    def test_signatures_cover_mutation_flag(self):
        assert OP_SIGNATURES["stat"][1] is False
        assert OP_SIGNATURES["write"][1] is True
        assert OP_SIGNATURES["read"][1] is True  # advances fd offset
        assert op("readdir", path="/").is_mutation is False

    def test_apply_captures_errno(self):
        spec = SpecFilesystem()
        result = op("rmdir", path="/missing").apply(spec)
        assert result.errno == Errno.ENOENT and not result.ok

    def test_apply_captures_value_and_ino(self):
        spec = SpecFilesystem()
        result = op("mkdir", path="/d").apply(spec, opseq=1)
        assert result.ok and result.ino is not None
        fd_result = op("open", path="/f", flags=int(OpenFlags.CREAT)).apply(spec, opseq=2)
        assert fd_result.value == 3 and fd_result.ino is not None

    def test_describe_hides_payload_bytes(self):
        text = op("write", fd=3, data=b"x" * 1000).describe()
        assert "<1000B>" in text and "xxx" not in text


def _reference_dispatch(operation: FsOp, fs, opseq: int):
    """The 17-arm ``if`` chain ``OP_DISPATCH`` replaced, kept verbatim as
    the table's reference."""
    a = operation.args
    name = operation.name
    if name == "mkdir":
        return fs.mkdir(a["path"], a.get("perms", 0o755), opseq=opseq)
    if name == "rmdir":
        return fs.rmdir(a["path"], opseq=opseq)
    if name == "unlink":
        return fs.unlink(a["path"], opseq=opseq)
    if name == "rename":
        return fs.rename(a["src"], a["dst"], opseq=opseq)
    if name == "link":
        return fs.link(a["existing"], a["new"], opseq=opseq)
    if name == "symlink":
        return fs.symlink(a["target"], a["path"], opseq=opseq)
    if name == "readlink":
        return fs.readlink(a["path"])
    if name == "readdir":
        return fs.readdir(a["path"])
    if name == "stat":
        return fs.stat(a["path"])
    if name == "lstat":
        return fs.lstat(a["path"])
    if name == "truncate":
        return fs.truncate(a["path"], a["size"], opseq=opseq)
    if name == "open":
        return fs.open(a["path"], OpenFlags(a.get("flags", 0)), a.get("perms", 0o644), opseq=opseq)
    if name == "close":
        return fs.close(a["fd"], opseq=opseq)
    if name == "read":
        return fs.read(a["fd"], a["length"], opseq=opseq)
    if name == "write":
        return fs.write(a["fd"], a["data"], opseq=opseq)
    if name == "lseek":
        return fs.lseek(a["fd"], a["offset"], a.get("whence", 0), opseq=opseq)
    if name == "fsync":
        return fs.fsync(a["fd"], opseq=opseq)
    raise AssertionError(f"unhandled op {name}")


class _RecordingFs:
    """Answers any API call by recording exactly how it was made."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, method):
        def record(*args, **kwargs):
            self.calls.append((method, args, kwargs))
            return (method, len(self.calls))

        return record


#: Every argument given, then only the required ones.
_SAMPLE_ARGS = {
    "mkdir": [{"path": "/a", "perms": 0o700}, {"path": "/a"}],
    "rmdir": [{"path": "/a"}],
    "unlink": [{"path": "/a"}],
    "rename": [{"src": "/a", "dst": "/b"}],
    "link": [{"existing": "/a", "new": "/b"}],
    "symlink": [{"target": "t", "path": "/l"}],
    "readlink": [{"path": "/l"}],
    "readdir": [{"path": "/"}],
    "stat": [{"path": "/a"}],
    "lstat": [{"path": "/a"}],
    "truncate": [{"path": "/a", "size": 7}],
    "open": [{"path": "/a", "flags": int(OpenFlags.CREAT | OpenFlags.EXCL), "perms": 0o600}, {"path": "/a"}],
    "close": [{"fd": 3}],
    "read": [{"fd": 3, "length": 9}],
    "write": [{"fd": 3, "data": b"payload"}],
    "lseek": [{"fd": 3, "offset": 4, "whence": 2}, {"fd": 3, "offset": 4}],
    "fsync": [{"fd": 3}],
}


class TestDispatchTable:
    def test_table_and_signatures_name_the_same_ops(self):
        assert set(OP_DISPATCH) == set(OP_SIGNATURES) == set(_SAMPLE_ARGS)

    @pytest.mark.parametrize("name", sorted(OP_SIGNATURES))
    def test_table_calls_exactly_as_the_if_chain_did(self, name):
        for args in _SAMPLE_ARGS[name]:
            operation = FsOp(name, args)
            table_fs, chain_fs = _RecordingFs(), _RecordingFs()
            via_table = OP_DISPATCH[name](table_fs, operation.args, 41)
            via_chain = _reference_dispatch(operation, chain_fs, 41)
            assert table_fs.calls == chain_fs.calls
            assert len(table_fs.calls) == 1 and table_fs.calls[0][0] == name
            assert via_table == via_chain  # the method's return value, untouched

    def test_open_flags_arrive_as_openflags(self):
        fs = _RecordingFs()
        op("open", path="/a", flags=3).apply(fs, opseq=1)
        flags = fs.calls[0][1][1]
        assert isinstance(flags, OpenFlags) and flags == OpenFlags.CREAT | OpenFlags.EXCL

    def test_mutation_flag_is_the_signature_entry(self):
        for name, (_args, is_mutation) in OP_SIGNATURES.items():
            assert FsOp(name).is_mutation is is_mutation
        # Resolved once, and not part of an op's identity or its repr.
        assert op("stat", path="/a") == FsOp("stat", {"path": "/a"})
        assert "is_mutation" not in repr(op("stat", path="/a"))


class TestOpResult:
    def test_same_outcome(self):
        assert OpResult(value=1).same_outcome_as(OpResult(value=1))
        assert not OpResult(value=1).same_outcome_as(OpResult(value=2))
        assert not OpResult(errno=Errno.ENOENT).same_outcome_as(OpResult(value=None))
        assert OpResult(errno=Errno.ENOENT).same_outcome_as(OpResult(errno=Errno.ENOENT))
        assert not OpResult(value=1, ino=5).same_outcome_as(OpResult(value=1, ino=6))

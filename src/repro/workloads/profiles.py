"""Workload profiles.

Each :class:`Profile` is a weighted operation mix plus shape parameters,
modelled on the classic filebench personalities the storage literature
benchmarks with.  Weights are relative; the generator normalizes them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Profile:
    name: str
    weights: dict[str, float] = field(default_factory=dict)
    prepopulate_files: int = 0  # files created before the measured stream
    prepopulate_dirs: int = 4
    file_size_blocks: tuple[int, int] = (1, 4)  # min/max blocks per created file
    io_size: tuple[int, int] = (512, 8192)  # bytes per read/write
    append_only: bool = False
    max_open_fds: int = 16
    dir_fanout: int = 20  # max entries per directory before a new one opens

    def __post_init__(self):
        if not self.weights:
            raise ValueError("profile needs weights")
        for op_name, weight in self.weights.items():
            if weight < 0:
                raise ValueError(f"negative weight for {op_name}")


def fileserver_profile() -> Profile:
    """Mixed metadata + data, the filebench 'fileserver' personality."""
    return Profile(
        name="fileserver",
        weights={
            "create": 2.0,
            "write": 3.0,
            "read": 3.0,
            "open_close": 1.0,
            "unlink": 1.0,
            "stat": 2.0,
            "readdir": 0.5,
            "mkdir": 0.3,
            "rename": 0.3,
            "fsync": 0.2,
        },
        prepopulate_files=32,
        file_size_blocks=(1, 8),
        io_size=(1024, 16384),
    )


def varmail_profile() -> Profile:
    """Mail spool: small appends, fsync-heavy, short-lived files."""
    return Profile(
        name="varmail",
        weights={
            "create": 3.0,
            "write": 3.0,
            "fsync": 2.0,
            "read": 2.0,
            "unlink": 2.0,
            "stat": 1.0,
        },
        prepopulate_files=16,
        file_size_blocks=(1, 2),
        io_size=(256, 4096),
        append_only=True,
    )


def webserver_profile() -> Profile:
    """Read-mostly over a pre-populated tree, occasional log append."""
    return Profile(
        name="webserver",
        weights={
            "read": 8.0,
            "open_close": 2.0,
            "stat": 2.0,
            "readdir": 1.0,
            "write": 0.5,  # the access log
            "fsync": 0.1,
        },
        prepopulate_files=64,
        file_size_blocks=(1, 6),
        io_size=(2048, 16384),
    )


def metadata_profile() -> Profile:
    """Namespace churn: the dentry/inode-cache stress test."""
    return Profile(
        name="metadata",
        weights={
            "mkdir": 2.0,
            "create": 3.0,
            "rename": 2.0,
            "unlink": 2.0,
            "rmdir": 1.0,
            "stat": 3.0,
            "readdir": 1.0,
            "symlink": 0.5,
            "link": 0.5,
        },
        prepopulate_files=8,
        file_size_blocks=(0, 1),
        io_size=(256, 1024),
    )

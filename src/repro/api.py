"""The filesystem API contract shared by base, shadow, and spec model.

RAE requires the base and shadow to "adhere to the same API"; this module
*is* that API.  It defines:

* :class:`FilesystemAPI` — the abstract operation set (POSIX-flavoured);
* :class:`OpenFlags` — open(2) flags the reproduction supports;
* :class:`StatResult` — what ``stat`` returns (inode identity included,
  because the paper calls inode numbers out as application-visible state
  that recovery must preserve);
* :class:`FsOp` / :class:`OpResult` — a reified operation and its outcome,
  used by the op log, the shadow's replay engine, workload generators, and
  the differential testers;
* shared path validation, so all three implementations reject malformed
  paths identically (divergent *validation* would register as a
  cross-check discrepancy, which is reserved for real bugs).

Path rules: paths are absolute (`/a/b`), components are non-empty, never
``.`` or ``..``, contain no NUL or ``/``, and are at most
:data:`~repro.ondisk.directory.MAX_NAME_LEN` bytes.  Symbolic links are
resolved in intermediate components and (unless the operation says
otherwise) in the final component, with an 8-link depth limit (``ELOOP``).

Timestamps are logical: every operation carries a sequence number assigned
by the caller (the RAE supervisor in production, tests directly), and any
timestamp written during that operation equals it.  This is what makes
base-vs-shadow metadata equality exact rather than approximate.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import Errno, FsError
from repro.ondisk.directory import MAX_NAME_LEN
from repro.ondisk.inode import FileType

SYMLINK_DEPTH_LIMIT = 8


class OpenFlags(enum.IntFlag):
    """Supported open(2) flags.  Access-mode enforcement is intentionally
    omitted (single-principal model); the flags that matter are the ones
    with namespace or data side effects."""

    NONE = 0
    CREAT = 1
    EXCL = 2
    TRUNC = 4
    APPEND = 8


@dataclass(frozen=True)
class StatResult:
    """Application-visible inode attributes.

    ``ino`` is part of the result on purpose: the paper's recovery
    contract says completed operations' inode numbers must be preserved,
    and the equivalence/cross-check machinery compares them.
    """

    ino: int
    ftype: FileType
    size: int
    nlink: int
    perms: int
    uid: int
    gid: int
    atime: int
    mtime: int
    ctime: int


def validate_name(name: str) -> None:
    """Validate one path component; raises ``FsError(EINVAL/ENAMETOOLONG)``."""
    if not name:
        raise FsError(Errno.EINVAL, "empty path component")
    if name in (".", ".."):
        raise FsError(Errno.EINVAL, f"component {name!r} not permitted in API paths")
    if "/" in name or "\x00" in name:
        raise FsError(Errno.EINVAL, f"illegal character in component {name!r}")
    if len(name.encode()) > MAX_NAME_LEN:
        raise FsError(Errno.ENAMETOOLONG, name[:32] + "...")


def split_path(path: str) -> list[str]:
    """Split an absolute path into validated components.

    ``"/"`` splits to ``[]``.  Trailing slashes are tolerated (``/a/b/``
    equals ``/a/b``), repeated slashes are not (``EINVAL``), matching the
    strictness the shadow's input validation is supposed to exhibit.
    """
    if not isinstance(path, str):
        raise FsError(Errno.EINVAL, f"path must be str, got {type(path).__name__}")
    if not path.startswith("/"):
        raise FsError(Errno.EINVAL, f"path not absolute: {path!r}")
    trimmed = path[1:]
    if trimmed.endswith("/"):
        trimmed = trimmed[:-1]
    if not trimmed:
        return []
    components = trimmed.split("/")
    for component in components:
        validate_name(component)
    return components


def parent_and_name(path: str) -> tuple[list[str], str]:
    """Split into (parent components, final name); "/" is rejected."""
    components = split_path(path)
    if not components:
        raise FsError(Errno.EINVAL, "operation not permitted on /")
    return components[:-1], components[-1]


class FilesystemAPI(ABC):
    """The operation set both filesystems implement.

    Every method either returns its documented result or raises
    :class:`~repro.errors.FsError`.  Any *other* exception escaping an
    implementation is a runtime error in the RAE sense — the supervisor's
    detector treats it as a reason to engage the shadow.

    ``opseq`` on mutating calls is the logical timestamp (see module
    docstring).  Implementations must use it for any time they record.
    """

    # --- namespace -------------------------------------------------------

    @abstractmethod
    def mkdir(self, path: str, perms: int = 0o755, opseq: int = 0) -> None:
        """Create a directory.  EEXIST if the name exists, ENOENT/ENOTDIR
        on bad parents, ENOSPC when out of inodes or blocks."""

    @abstractmethod
    def rmdir(self, path: str, opseq: int = 0) -> None:
        """Remove an empty directory.  ENOTEMPTY if it has entries,
        ENOTDIR if not a directory, EPERM on the root."""

    @abstractmethod
    def unlink(self, path: str, opseq: int = 0) -> None:
        """Remove a file or symlink name.  EISDIR on directories."""

    @abstractmethod
    def rename(self, src: str, dst: str, opseq: int = 0) -> None:
        """Atomically rename.  POSIX semantics: an existing empty-dir /
        file destination is replaced if types are compatible; EINVAL when
        moving a directory into its own subtree."""

    @abstractmethod
    def link(self, existing: str, new: str, opseq: int = 0) -> None:
        """Create a hard link to a regular file (EPERM on directories)."""

    @abstractmethod
    def symlink(self, target: str, path: str, opseq: int = 0) -> None:
        """Create a symbolic link holding ``target`` (not validated)."""

    @abstractmethod
    def readlink(self, path: str) -> str:
        """Return a symlink's target.  EINVAL if not a symlink."""

    @abstractmethod
    def readdir(self, path: str) -> list[str]:
        """Names in a directory, sorted, excluding '.' and '..'."""

    # --- attributes ------------------------------------------------------

    @abstractmethod
    def stat(self, path: str) -> StatResult:
        """Attributes, following symlinks."""

    @abstractmethod
    def lstat(self, path: str) -> StatResult:
        """Attributes of the name itself (no final-symlink follow)."""

    @abstractmethod
    def truncate(self, path: str, size: int, opseq: int = 0) -> None:
        """Grow (zero-fill) or shrink a regular file to ``size``."""

    # --- descriptors and data ---------------------------------------------

    @abstractmethod
    def open(self, path: str, flags: OpenFlags = OpenFlags.NONE, perms: int = 0o644, opseq: int = 0) -> int:
        """Open (optionally creating) a regular file; returns an fd.
        Lowest-free-fd allocation starting at 3 — fd numbers are
        application-visible state that recovery must reproduce."""

    @abstractmethod
    def close(self, fd: int, opseq: int = 0) -> None:
        """Release an fd.  EBADF if not open."""

    @abstractmethod
    def read(self, fd: int, length: int, opseq: int = 0) -> bytes:
        """Read up to ``length`` bytes at the fd's offset, advancing it."""

    @abstractmethod
    def write(self, fd: int, data: bytes, opseq: int = 0) -> int:
        """Write at the fd's offset (end-of-file under APPEND), advancing
        it; returns the byte count.  Full writes only — ENOSPC rolls the
        operation back entirely rather than writing a prefix."""

    @abstractmethod
    def lseek(self, fd: int, offset: int, whence: int = 0, opseq: int = 0) -> int:
        """Reposition (0=SET, 1=CUR, 2=END); returns the new offset."""

    @abstractmethod
    def fsync(self, fd: int, opseq: int = 0) -> None:
        """Make completed operations durable.  The base commits its
        journal; the shadow does not implement fsync (§3.3) and its
        replay engine skips it."""

    @abstractmethod
    def fstat_ino(self, fd: int) -> int:
        """The inode number behind an open fd (EBADF if not open).

        Used by the op log to record the allocation outcome of ``open``
        with CREAT, which constrained replay must validate."""


# --------------------------------------------------------------------------
# Reified operations


#: name -> (argument names, is_mutation)
OP_SIGNATURES: dict[str, tuple[tuple[str, ...], bool]] = {
    "mkdir": (("path", "perms"), True),
    "rmdir": (("path",), True),
    "unlink": (("path",), True),
    "rename": (("src", "dst"), True),
    "link": (("existing", "new"), True),
    "symlink": (("target", "path"), True),
    "readlink": (("path",), False),
    "readdir": (("path",), False),
    "stat": (("path",), False),
    "lstat": (("path",), False),
    "truncate": (("path", "size"), True),
    "open": (("path", "flags", "perms"), True),
    "close": (("fd",), True),
    "read": (("fd", "length"), True),  # advances the offset: replay-relevant
    "write": (("fd", "data"), True),
    "lseek": (("fd", "offset", "whence"), True),
    "fsync": (("fd",), True),
}


@dataclass
class OpResult:
    """The outcome of one operation, as the application saw it.

    Exactly one of ``errno``/success holds.  ``value`` carries the return
    (fd for open, bytes for read, offset for lseek, names for readdir,
    StatResult for stat...).  ``ino`` is filled for namespace-creating
    operations so constrained replay can validate allocation decisions.
    """

    errno: Errno | None = None
    value: Any = None
    ino: int | None = None

    @property
    def ok(self) -> bool:
        return self.errno is None

    def same_outcome_as(self, other: "OpResult") -> bool:
        """Outcome equality as the cross-checker defines it."""
        return self.errno == other.errno and self.value == other.value and self.ino == other.ino


#: name -> how to call it on a :class:`FilesystemAPI`, given the op's
#: argument dict and the logical timestamp.  Keyed exactly like
#: :data:`OP_SIGNATURES`; optional arguments default here as they do in
#: the method signatures.
OP_DISPATCH: dict[str, Callable[[FilesystemAPI, dict[str, Any], int], Any]] = {
    "mkdir": lambda fs, a, opseq: fs.mkdir(a["path"], a.get("perms", 0o755), opseq=opseq),
    "rmdir": lambda fs, a, opseq: fs.rmdir(a["path"], opseq=opseq),
    "unlink": lambda fs, a, opseq: fs.unlink(a["path"], opseq=opseq),
    "rename": lambda fs, a, opseq: fs.rename(a["src"], a["dst"], opseq=opseq),
    "link": lambda fs, a, opseq: fs.link(a["existing"], a["new"], opseq=opseq),
    "symlink": lambda fs, a, opseq: fs.symlink(a["target"], a["path"], opseq=opseq),
    "readlink": lambda fs, a, opseq: fs.readlink(a["path"]),
    "readdir": lambda fs, a, opseq: fs.readdir(a["path"]),
    "stat": lambda fs, a, opseq: fs.stat(a["path"]),
    "lstat": lambda fs, a, opseq: fs.lstat(a["path"]),
    "truncate": lambda fs, a, opseq: fs.truncate(a["path"], a["size"], opseq=opseq),
    "open": lambda fs, a, opseq: fs.open(
        a["path"], OpenFlags(a.get("flags", 0)), a.get("perms", 0o644), opseq=opseq
    ),
    "close": lambda fs, a, opseq: fs.close(a["fd"], opseq=opseq),
    "read": lambda fs, a, opseq: fs.read(a["fd"], a["length"], opseq=opseq),
    "write": lambda fs, a, opseq: fs.write(a["fd"], a["data"], opseq=opseq),
    "lseek": lambda fs, a, opseq: fs.lseek(a["fd"], a["offset"], a.get("whence", 0), opseq=opseq),
    "fsync": lambda fs, a, opseq: fs.fsync(a["fd"], opseq=opseq),
}


@dataclass
class FsOp:
    """One reified filesystem operation."""

    name: str
    args: dict[str, Any] = field(default_factory=dict)
    #: Whether the op log records it (from :data:`OP_SIGNATURES`).
    is_mutation: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        signature = OP_SIGNATURES.get(self.name)
        if signature is None:
            raise ValueError(f"unknown operation {self.name!r}")
        expected, self.is_mutation = signature
        for arg in self.args:
            if arg not in expected:
                raise ValueError(f"{self.name} does not take argument {arg!r}")

    def apply(self, fs: FilesystemAPI, opseq: int = 0) -> OpResult:
        """Execute against any implementation, capturing the outcome.

        ``FsError`` becomes an errno outcome; anything else propagates —
        that is the detector's business, not the API's.
        """
        try:
            value = OP_DISPATCH[self.name](fs, self.args, opseq)
        except FsError as err:
            return OpResult(err.errno)
        ino = None
        if self.name in ("mkdir", "symlink"):
            ino = fs.stat(self.args["path"]).ino if self.name == "mkdir" else fs.lstat(self.args["path"]).ino
        elif self.name == "open":
            ino = fs.fstat_ino(value)
        return OpResult(None, value, ino)

    def describe(self) -> str:
        """Compact human-readable form for logs and reports."""
        parts = []
        for key, value in self.args.items():
            if isinstance(value, bytes):
                parts.append(f"{key}=<{len(value)}B>")
            else:
                parts.append(f"{key}={value!r}")
        return f"{self.name}({', '.join(parts)})"


def op(name: str, **args: Any) -> FsOp:
    """Terse FsOp constructor: ``op('mkdir', path='/a')``."""
    return FsOp(name=name, args=args)

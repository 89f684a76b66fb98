"""The Eden file system: files, directories, concatenators, bootstrap.

Files and directories are active Ejects (paper §2); the bootstrap
layer (§7) bridges to a simulated host Unix filesystem; the
transaction layer implements the §7 "preliminary design".
"""

from repro._lazy import lazy_front

__getattr__, __dir__, __all__ = lazy_front(globals(), {
    "repro.filesystem.bootstrap": ("UnixFile", "UnixFileSystem"),
    "repro.filesystem.concatenator": ("DirectoryConcatenator",),
    "repro.filesystem.directory": ("Directory",),
    "repro.filesystem.file": ("EdenFile", "FileReader"),
    "repro.filesystem.hostfs": ("HostFileSystem", "split_path"),
    "repro.filesystem.mapfile": ("MapFile", "MapIndexError"),
    "repro.filesystem.transactions": ("TransactionalDirectory",),
})

"""Abandoning a NoVoHT store the way a killed process does."""


def abandon(store) -> None:
    """Release *store*'s file handles and nothing else: no checkpoint is
    written and the WAL is not truncated, as after ``kill -9``.  Every
    mutation has flushed its record already, so closing the handles puts
    no byte on disk that a crash would not have left there."""
    with store._lock:
        if store._wal is not None:
            store._wal.close()
        if store._ovf_file is not None:
            store._ovf_file.close()

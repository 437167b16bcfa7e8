//! Typed ingestion errors with file/line/column context.

use piccolo_graph::GraphError;
use std::path::{Path, PathBuf};

/// Why a graph file could not be ingested. Every variant carries the path it concerns;
/// parse errors additionally carry the 1-based line (and, where known, field) position,
/// so a malformed file fails with an actionable message instead of a panic.
#[derive(Debug)]
pub enum IoError {
    /// An underlying filesystem error (open, read, write, rename).
    Io {
        /// The file the operation concerned.
        path: PathBuf,
        /// The operating-system error.
        source: std::io::Error,
    },
    /// A text-format parse error at a known position.
    Parse {
        /// The file being parsed.
        path: PathBuf,
        /// 1-based line number.
        line: u64,
        /// 1-based whitespace-separated field number on that line, where applicable.
        col: Option<u64>,
        /// What was wrong.
        msg: String,
    },
    /// A binary `.pcsr` structural error (bad magic, unsupported version, checksum
    /// mismatch, truncation, trailing bytes, implausible counts), or a compressed
    /// input its decoder refused or could not run on.
    Format {
        /// The snapshot or compressed file.
        path: PathBuf,
        /// What was wrong.
        msg: String,
    },
    /// The file decoded cleanly but described an inconsistent graph (for example a
    /// non-monotone offset array in a snapshot).
    Graph {
        /// The file the graph came from.
        path: PathBuf,
        /// The structural violation.
        source: GraphError,
    },
}

impl IoError {
    pub(crate) fn io(path: &Path, source: std::io::Error) -> Self {
        IoError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    pub(crate) fn parse(path: &Path, line: u64, col: Option<u64>, msg: impl Into<String>) -> Self {
        IoError::Parse {
            path: path.to_path_buf(),
            line,
            col,
            msg: msg.into(),
        }
    }

    pub(crate) fn format(path: &Path, msg: impl Into<String>) -> Self {
        IoError::Format {
            path: path.to_path_buf(),
            msg: msg.into(),
        }
    }

    pub(crate) fn graph(path: &Path, source: GraphError) -> Self {
        IoError::Graph {
            path: path.to_path_buf(),
            source,
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            IoError::Parse {
                path,
                line,
                col,
                msg,
            } => match col {
                Some(col) => write!(f, "{}:{line}: field {col}: {msg}", path.display()),
                None => write!(f, "{}:{line}: {msg}", path.display()),
            },
            IoError::Format { path, msg } => write!(f, "{}: {msg}", path.display()),
            IoError::Graph { path, source } => {
                write!(f, "{}: inconsistent graph: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for IoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IoError::Io { source, .. } => Some(source),
            IoError::Graph { source, .. } => Some(source),
            _ => None,
        }
    }
}

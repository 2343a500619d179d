package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"

	"mrl/internal/faultfs"
)

// memFS is the tmpfs the deployments keep their WAL and checkpoints on: an
// in-process filesystem whose file bytes live in anonymous mmap chunks, so
// they stay out of the Go heap (heap_mb measures sketch state, not log
// bytes) and the run writes nothing outside its checkout. Sync is a no-op,
// as on tmpfs. Files only ever grow by appending, which is all the WAL and
// the checkpoint writer do.
//
// clone shares every chunk with its source; a write into a shared chunk
// copies it first, so each set-up repetition recovers from an identical
// prepared state without copying it.
//
// Once discard is set, a WAL segment's bytes are dropped when its writer
// closes it: the measured phases write far more log than a run reads back
// (recovery happens only in set-up), and keeping it would hold gigabytes.
// Reading a discarded segment is an error, never an empty replay.
type memFS struct {
	mu      sync.Mutex
	files   map[string]*memInode
	dirs    map[string]bool
	discard atomic.Bool
}

const memChunk = 1 << 20

type memBlock struct {
	b    []byte
	refs atomic.Int32
}

func newBlock() (*memBlock, error) {
	b, err := syscall.Mmap(-1, 0, memChunk, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("memfs: mmap: %w", err)
	}
	blk := &memBlock{b: b}
	blk.refs.Store(1)
	return blk, nil
}

func (blk *memBlock) unref() {
	if blk.refs.Add(-1) == 0 {
		_ = syscall.Munmap(blk.b)
	}
}

// memInode is one file's content. Its blocks are freed once it is neither
// linked into the namespace nor held open.
type memInode struct {
	mu        sync.RWMutex
	blocks    []*memBlock
	size      int64
	linked    bool
	opens     int
	discarded bool
}

func newMemFS() *memFS {
	return &memFS{files: map[string]*memInode{}, dirs: map[string]bool{"/": true}}
}

// releaseLocked frees ino's blocks when nothing references it; the caller
// holds fsys.mu.
func (ino *memInode) releaseLocked() {
	if ino.linked || ino.opens > 0 {
		return
	}
	ino.mu.Lock()
	for _, blk := range ino.blocks {
		blk.unref()
	}
	ino.blocks, ino.size = nil, 0
	ino.mu.Unlock()
}

func (fsys *memFS) clone() *memFS {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	c := newMemFS()
	for d := range fsys.dirs {
		c.dirs[d] = true
	}
	for p, ino := range fsys.files {
		ino.mu.RLock()
		blocks := append([]*memBlock(nil), ino.blocks...)
		size := ino.size
		ino.mu.RUnlock()
		for _, blk := range blocks {
			blk.refs.Add(1)
		}
		c.files[p] = &memInode{blocks: blocks, size: size, linked: true}
	}
	return c
}

// free unlinks every file, returning the chunks of those not held open.
func (fsys *memFS) free() {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	for p, ino := range fsys.files {
		ino.linked = false
		ino.releaseLocked()
		delete(fsys.files, p)
	}
}

// bytes reports the file bytes currently linked into the namespace.
func (fsys *memFS) bytes() int64 {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	var n int64
	for _, ino := range fsys.files {
		ino.mu.RLock()
		n += ino.size
		ino.mu.RUnlock()
	}
	return n
}

func notExist(op, path string) error {
	return &fs.PathError{Op: op, Path: path, Err: fs.ErrNotExist}
}

func (fsys *memFS) OpenFile(path string, flag int, _ fs.FileMode) (faultfs.File, error) {
	path = filepath.Clean(path)
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	ino := fsys.files[path]
	if ino == nil {
		if flag&os.O_CREATE == 0 {
			return nil, notExist("open", path)
		}
		if !fsys.dirs[filepath.Dir(path)] {
			return nil, notExist("open", filepath.Dir(path))
		}
		ino = &memInode{linked: true}
		fsys.files[path] = ino
	} else if flag&os.O_TRUNC != 0 {
		// Truncation gives the path fresh content; readers holding the old
		// inode keep it.
		ino.linked = false
		ino.releaseLocked()
		ino = &memInode{linked: true}
		fsys.files[path] = ino
	}
	if ino.discarded {
		return nil, fmt.Errorf("memfs: %s: content was discarded after it was written", path)
	}
	ino.opens++
	return &memFile{fsys: fsys, ino: ino, name: path, writable: flag&(os.O_WRONLY|os.O_RDWR) != 0}, nil
}

func (fsys *memFS) Rename(oldpath, newpath string) error {
	oldpath, newpath = filepath.Clean(oldpath), filepath.Clean(newpath)
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	ino := fsys.files[oldpath]
	if ino == nil {
		return notExist("rename", oldpath)
	}
	if old := fsys.files[newpath]; old != nil && old != ino {
		old.linked = false
		old.releaseLocked()
	}
	delete(fsys.files, oldpath)
	fsys.files[newpath] = ino
	return nil
}

func (fsys *memFS) Remove(path string) error {
	path = filepath.Clean(path)
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	ino := fsys.files[path]
	if ino == nil {
		return notExist("remove", path)
	}
	delete(fsys.files, path)
	ino.linked = false
	ino.releaseLocked()
	return nil
}

func (fsys *memFS) MkdirAll(path string, _ fs.FileMode) error {
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	for p := filepath.Clean(path); !fsys.dirs[p]; p = filepath.Dir(p) {
		fsys.dirs[p] = true
	}
	return nil
}

func (fsys *memFS) ReadDir(dir string) ([]string, error) {
	dir = filepath.Clean(dir)
	fsys.mu.Lock()
	defer fsys.mu.Unlock()
	if !fsys.dirs[dir] {
		return nil, notExist("readdir", dir)
	}
	var names []string
	for p := range fsys.files {
		if filepath.Dir(p) == dir {
			names = append(names, filepath.Base(p))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fsys *memFS) SyncDir(string) error { return nil }

// memFile is an open handle: reads advance a private offset, writes append.
type memFile struct {
	fsys     *memFS
	ino      *memInode
	name     string
	writable bool
	off      int64
	closed   bool
}

var errClosedFile = errors.New("memfs: file already closed")

func (f *memFile) Read(p []byte) (int, error) {
	if f.closed {
		return 0, errClosedFile
	}
	ino := f.ino
	ino.mu.RLock()
	defer ino.mu.RUnlock()
	if f.off >= ino.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && f.off < ino.size {
		blk := ino.blocks[f.off/memChunk]
		lo := f.off % memChunk
		hi := int64(memChunk)
		if rest := ino.size - (f.off - lo); rest < hi {
			hi = rest
		}
		c := copy(p[n:], blk.b[lo:hi])
		n += c
		f.off += int64(c)
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if f.closed {
		return 0, errClosedFile
	}
	if !f.writable {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: fs.ErrPermission}
	}
	ino := f.ino
	ino.mu.Lock()
	defer ino.mu.Unlock()
	n := 0
	for n < len(p) {
		lo := ino.size % memChunk
		if lo == 0 {
			blk, err := newBlock()
			if err != nil {
				return n, err
			}
			ino.blocks = append(ino.blocks, blk)
		}
		last := len(ino.blocks) - 1
		if blk := ino.blocks[last]; blk.refs.Load() > 1 {
			cp, err := newBlock()
			if err != nil {
				return n, err
			}
			copy(cp.b, blk.b[:lo])
			blk.unref()
			ino.blocks[last] = cp
		}
		c := copy(ino.blocks[last].b[lo:], p[n:])
		n += c
		ino.size += int64(c)
	}
	return n, nil
}

func (f *memFile) Sync() error {
	if f.closed {
		return errClosedFile
	}
	return nil
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Close() error {
	if f.closed {
		return errClosedFile
	}
	f.closed = true
	f.fsys.mu.Lock()
	defer f.fsys.mu.Unlock()
	f.ino.opens--
	if f.writable && f.fsys.discard.Load() && isWALSegment(f.name) {
		f.ino.discarded = true
		f.ino.mu.Lock()
		for _, blk := range f.ino.blocks {
			blk.unref()
		}
		f.ino.blocks, f.ino.size = nil, 0
		f.ino.mu.Unlock()
	}
	f.ino.releaseLocked()
	return nil
}

/**
 * @file
 * Small-buffer-optimized move-only callable.
 *
 * The event kernel executes tens of millions of callbacks per simulated
 * run; wrapping each in a std::function heap-allocates whenever the
 * capture list outgrows the implementation's tiny internal buffer
 * (typically 16 B). InlineFunction stores captures up to inlineCapacity
 * bytes (56 B — enough for `this` plus a full 40-B noc::Message and
 * one more word) directly in the object and only falls back to the
 * heap beyond that. The object stays 64 B: one cache line, the size
 * the 16-B aligned buffer plus the ops pointer pads to anyway. It is
 * move-only, so callables may own move-only state (including other
 * InlineFunctions) without the copyability tax std::function imposes.
 */

#ifndef CORONA_SIM_INLINE_FUNCTION_HH
#define CORONA_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace corona::sim {

template <typename Signature>
class InlineFunction;

/**
 * Move-only callable with a 56-byte inline capture buffer.
 */
template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    /** Captures at most this large live in the object itself. */
    static constexpr std::size_t inlineCapacity = 56;

    /** True for a callable the object can hold: invocable as R(Args...)
     * and not itself an InlineFunction (those move instead). */
    template <typename F>
    static constexpr bool holds =
        !std::is_same_v<std::decay_t<F>, InlineFunction> &&
        std::is_invocable_r_v<R, std::decay_t<F> &, Args...>;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F, typename = std::enable_if_t<holds<F>>>
    InlineFunction(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    /**
     * Destroy the held callable, if any, and build @p fn's decayed copy
     * in its place: a temporary is moved once and an lvalue copied
     * once, with no relocation after. If building throws, the object
     * is left empty.
     */
    template <typename F, typename = std::enable_if_t<holds<F>>>
    void
    emplace(F &&fn)
    {
        destroy();
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(_storage))
                Fn(std::forward<F>(fn));
            _ops = &inlineOps<Fn>;
        } else {
            *reinterpret_cast<Fn **>(_storage) =
                new Fn(std::forward<F>(fn));
            _ops = &heapOps<Fn>;
        }
    }

    /** Destroy the held callable, if any, leaving the object empty. */
    void reset() noexcept { destroy(); }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            destroy();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { destroy(); }

    explicit operator bool() const { return _ops != nullptr; }

    R
    operator()(Args... args)
    {
        if (!_ops)
            throw std::bad_function_call(); // Match std::function.
        return _ops->invoke(_storage, std::forward<Args>(args)...);
    }

    /** True when the callable lives in the inline buffer (tests pin
     * the hot-path capture sizes with this). */
    bool isInline() const { return _ops && _ops->inline_stored; }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into @p dst from @p src and destroy @p src.
         * Null when a raw byte copy suffices (trivially relocatable
         * inline captures — the common case on the event hot path,
         * where a move must not cost an indirect call). */
        void (*relocate)(void *dst, void *src);
        /** Null when destruction is a no-op. */
        void (*destroy)(void *);
        bool inline_stored;
    };

    template <typename Fn>
    static constexpr bool fitsInline =
        sizeof(Fn) <= inlineCapacity &&
        alignof(Fn) <= alignof(std::max_align_t) &&
        std::is_nothrow_move_constructible_v<Fn>;

    template <typename Fn>
    static constexpr bool trivialInline =
        std::is_trivially_copyable_v<Fn> &&
        std::is_trivially_destructible_v<Fn>;

    template <typename Fn>
    static constexpr Ops inlineOps = {
        [](void *storage, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(storage)))(
                std::forward<Args>(args)...);
        },
        trivialInline<Fn> ? nullptr
                          : +[](void *dst, void *src) {
                                Fn *from = std::launder(
                                    reinterpret_cast<Fn *>(src));
                                ::new (dst) Fn(std::move(*from));
                                from->~Fn();
                            },
        trivialInline<Fn> ? nullptr
                          : +[](void *storage) {
                                std::launder(
                                    reinterpret_cast<Fn *>(storage))
                                    ->~Fn();
                            },
        true,
    };

    template <typename Fn>
    static constexpr Ops heapOps = {
        [](void *storage, Args &&...args) -> R {
            return (**std::launder(reinterpret_cast<Fn **>(storage)))(
                std::forward<Args>(args)...);
        },
        nullptr, // The owning pointer relocates by byte copy.
        [](void *storage) {
            delete *std::launder(reinterpret_cast<Fn **>(storage));
        },
        false,
    };

    void
    moveFrom(InlineFunction &other) noexcept
    {
        _ops = other._ops;
        if (_ops) {
            if (_ops->relocate) {
                _ops->relocate(_storage, other._storage);
            } else {
                // Constant-size copy, which measured faster than a
                // runtime length. Bytes past the stored object are
                // indeterminate padding; copying indeterminate
                // unsigned chars is well-defined, so the
                // maybe-uninitialized diagnostic is a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
                __builtin_memcpy(_storage, other._storage,
                                 inlineCapacity);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
            }
        }
        other._ops = nullptr;
    }

    void
    destroy() noexcept
    {
        if (_ops) {
            if (_ops->destroy)
                _ops->destroy(_storage);
            _ops = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char _storage[inlineCapacity];
    const Ops *_ops = nullptr;
};

static_assert(InlineFunction<void()>::inlineCapacity == 56,
              "`this` plus a 40-B noc::Message must stay inline");
static_assert(sizeof(InlineFunction<void()>) == 64,
              "an event callback is one 64-B cache line");

} // namespace corona::sim

#endif // CORONA_SIM_INLINE_FUNCTION_HH
